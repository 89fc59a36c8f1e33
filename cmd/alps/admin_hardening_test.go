package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alps"
	"alps/internal/osproc"
	"alps/internal/trace"
)

// newAdminRunner builds a two-task runner over a virtual process table,
// suitable for driving adminConfigHandler without touching real PIDs.
func newAdminRunner(t *testing.T) (*alps.Runner, *osproc.FaultSys) {
	t.Helper()
	fs := osproc.NewFaultSys()
	fs.SharedCPU = true
	fs.AddProc(osproc.FaultProc{PID: 100, Start: 100})
	fs.AddProc(osproc.FaultProc{PID: 200, Start: 200})
	r, err := alps.NewRunner(alps.RunnerConfig{
		Quantum: 10 * time.Millisecond,
		Sys:     fs,
	}, []alps.RunnerTask{
		{ID: 0, Share: 1, PIDs: []int{100}},
		{ID: 1, Share: 3, PIDs: []int{200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Release)
	return r, fs
}

// The admin endpoint must bound what it reads: an oversized document is
// rejected with 413 before it is parsed, malformed or unknown-field
// documents with 400, and non-GET/POST methods with 405.
func TestAdminConfigBodyLimits(t *testing.T) {
	r, _ := newAdminRunner(t)
	h := adminConfigHandler(r, trace.NewAuditor(trace.AuditorConfig{}))

	oversized := `{"tasks":[` + strings.Repeat(`{"id":0,"share":1},`, maxConfigBytes/18) + `{"id":0,"share":1}]}`
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"good document", http.MethodPost, `{"tasks":[{"id":0,"share":2}]}`, http.StatusOK},
		{"idempotent repost", http.MethodPost, `{"tasks":[{"id":0,"share":2}]}`, http.StatusOK},
		{"oversized body", http.MethodPost, oversized, http.StatusRequestEntityTooLarge},
		{"unknown field", http.MethodPost, `{"tasks":[{"id":0,"sahre":2}]}`, http.StatusBadRequest},
		{"malformed JSON", http.MethodPost, `{"tasks":`, http.StatusBadRequest},
		{"bad method", http.MethodPut, `{}`, http.StatusMethodNotAllowed},
		{"read back", http.MethodGet, "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/admin/config", strings.NewReader(tc.body))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != tc.want {
				t.Fatalf("status = %d, want %d (body: %s)", rw.Code, tc.want, rw.Body.String())
			}
		})
	}
	// The rejected documents must not have changed anything: share 2 from
	// the good POST is still in force.
	for _, tk := range r.State().Tasks {
		if tk.ID == 0 && tk.Share != 2 {
			t.Errorf("task 0 share = %d after rejected posts, want 2", tk.Share)
		}
	}
}

// hardenedServer is the wrapper every alps listener goes through; its
// bounds are what keeps a slow-loris from pinning connections. The
// values themselves matter: the write timeout must stay wide enough for
// a 30s /debug/pprof/profile capture.
func TestHardenedServerBounds(t *testing.T) {
	hs := hardenedServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("hardened server leaves a read bound unset: %+v", hs)
	}
	if hs.WriteTimeout < 31*time.Second {
		t.Errorf("WriteTimeout %v cannot serve a 30s pprof profile", hs.WriteTimeout)
	}
}

// A client that stalls — before finishing its headers, or mid-body after
// promising a Content-Length — must be disconnected once the read bounds
// expire, not hold its connection (and, for the body case, the handler
// goroutine) forever. The bounds are shrunk from their production values
// so the test completes quickly; the mechanism under test is that
// hardenedServer installs them at all.
func TestHardenedServerDropsStalledClient(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, _ := newAdminRunner(t)
	mux := http.NewServeMux()
	mux.Handle("/admin/config", adminConfigHandler(r, trace.NewAuditor(trace.AuditorConfig{})))
	hs := hardenedServer(mux)
	hs.ReadHeaderTimeout = 300 * time.Millisecond
	hs.ReadTimeout = 600 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	cases := []struct {
		name    string
		preface string // written immediately; then the client stalls
	}{
		{"stalls before headers", "POST /admin/config HTTP/1.1\r\nHost: x\r\n"},
		{"stalls mid-body", "POST /admin/config HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{\"tasks\":"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := fmt.Fprint(conn, tc.preface); err != nil {
				t.Fatal(err)
			}
			// The server must close the connection on its own; the
			// deadline here is only a backstop well past the bounds.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1024)
			for {
				if _, err := conn.Read(buf); err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						t.Fatal("server kept the stalled connection open past its read bounds")
					}
					return // closed by the server: what we want
				}
			}
		})
	}
}
