package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alps"
	"alps/internal/osproc"
)

// Live reconfiguration has three concurrent writers in production: the
// control loop (stepping and capturing checkpoints), direct Reconfigure
// callers (the coordinator link applying assignments), and operators
// POSTing /admin/config. This test runs all three flat out under -race:
// the control loop steps a virtual clock with a Checkpoint hook that
// walks the whole captured state, while one goroutine hammers
// Reconfigure and another POSTs share flips through the real admin
// handler. Every POST must succeed, every checkpoint must be internally
// consistent, and the final state must be one of the written values.
func TestAdminReconfigureCheckpointRace(t *testing.T) {
	fs := osproc.NewFaultSys()
	fs.SharedCPU = true
	fs.AddProc(osproc.FaultProc{PID: 100, Start: 100})
	fs.AddProc(osproc.FaultProc{PID: 200, Start: 200})

	var ckpts atomic.Int64
	r, err := alps.NewRunner(alps.RunnerConfig{
		Quantum: 10 * time.Millisecond,
		Sys:     fs,
		Checkpoint: func(st alps.RunnerState) {
			// Read every field of the capture so -race sees any torn
			// snapshot, and check it is internally consistent.
			if st.BaseQuantum <= 0 {
				t.Errorf("checkpoint with quantum %v", st.BaseQuantum)
			}
			for _, tk := range st.Tasks {
				if tk.Share <= 0 {
					t.Errorf("checkpoint task %d with share %d", tk.ID, tk.Share)
				}
				for _, p := range tk.PIDs {
					if p.PID == 0 {
						t.Errorf("checkpoint task %d with zero PID", tk.ID)
					}
				}
			}
			ckpts.Add(1)
		},
	}, []alps.RunnerTask{
		{ID: 0, Share: 1, PIDs: []int{100}},
		{ID: 1, Share: 3, PIDs: []int{200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	h := adminConfigHandler(r, nil)

	const writes = 200
	stop := make(chan struct{})
	loopDone := make(chan struct{})

	// Control loop: advance the virtual clock one quantum and step, as
	// Runner.Run would, until both writers are done.
	go func() {
		defer close(loopDone)
		for {
			select {
			case <-stop:
				return
			default:
				fs.Advance(10 * time.Millisecond)
				r.Step()
			}
		}
	}()

	var writers sync.WaitGroup

	// Direct Reconfigure writer: the coordinator-link path.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < writes; i++ {
			share := int64(1 + i%4)
			if err := r.Reconfigure(alps.Reconfig{
				SetShares: map[alps.TaskID]int64{0: share},
			}); err != nil {
				t.Errorf("Reconfigure: %v", err)
			}
		}
	}()

	// Admin POST writer: the operator path, through the real handler
	// (snapshot, diff, apply), flipping task 1's share.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < writes; i++ {
			body := fmt.Sprintf(`{"tasks":[{"id":1,"share":%d}]}`, 1+i%4)
			req := httptest.NewRequest(http.MethodPost, "/admin/config", strings.NewReader(body))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				t.Errorf("POST %d: status %d: %s", i, rw.Code, rw.Body.String())
			}
		}
	}()

	written := make(chan struct{})
	go func() { writers.Wait(); close(written) }()
	select {
	case <-written:
	case <-time.After(30 * time.Second):
		t.Fatal("writers did not finish")
	}
	close(stop)
	<-loopDone

	for _, tk := range r.State().Tasks {
		if tk.Share < 1 || tk.Share > 4 {
			t.Errorf("final share of task %d = %d, not a written value", tk.ID, tk.Share)
		}
	}
	if ckpts.Load() == 0 {
		t.Error("control loop captured no checkpoints while racing")
	}
}
