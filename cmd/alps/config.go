package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"alps"
	"alps/internal/trace"
)

// Live reconfiguration: the same JSON document drives the -config file
// (applied at startup and on SIGHUP), the /admin/config endpoint (GET
// returns the current configuration, POST applies a new one) and a
// fleet shard's coordinator assignments.
// Translation to a Reconfig batch is diff-based — unchanged entries are
// skipped — so re-applying a document is idempotent, and the Runner's
// validate-then-apply semantics make every application all-or-nothing.

// configDoc is the operator-facing reconfiguration document.
//
//	{
//	  "quantum": "20ms",
//	  "audit_window": 32,
//	  "audit_drift": 0.1,
//	  "tasks": [
//	    {"id": 0, "share": 3},
//	    {"id": 1, "share": 1, "pids": [4321, 4322]},
//	    {"id": 2, "remove": true}
//	  ]
//	}
//
// audit_window and audit_drift retune the accuracy auditor live (the
// -audit-window and -audit-drift flags set the startup values); zero or
// absent leaves the running thresholds alone, so documents written for
// older versions apply unchanged.
type configDoc struct {
	Quantum     string       `json:"quantum,omitempty"`
	AuditWindow int          `json:"audit_window,omitempty"`
	AuditDrift  float64      `json:"audit_drift,omitempty"`
	Tasks       []configTask `json:"tasks,omitempty"`
}

type configTask struct {
	ID     int64 `json:"id"`
	Share  int64 `json:"share,omitempty"`
	PIDs   []int `json:"pids,omitempty"`
	Remove bool  `json:"remove,omitempty"`
}

// maxConfigBytes bounds a POSTed /admin/config document. Real documents
// are a few KB even with thousands of tasks; 1 MiB is generous.
const maxConfigBytes = 1 << 20

func parseConfigDoc(r io.Reader) (configDoc, error) {
	var doc configDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return doc, fmt.Errorf("bad config document: %w", err)
	}
	return doc, nil
}

// toReconfig diffs the document against the runner's current state:
// known task IDs become share updates and PID rebinds, unknown IDs
// become adds, remove:true becomes removes.
func (d configDoc) toReconfig(cur alps.RunnerState) (alps.Reconfig, error) {
	var rc alps.Reconfig
	if d.Quantum != "" {
		q, err := time.ParseDuration(d.Quantum)
		if err != nil {
			return rc, fmt.Errorf("bad quantum %q: %v", d.Quantum, err)
		}
		if q != cur.BaseQuantum {
			rc.Quantum = q
		}
	}
	type binding struct {
		share int64
		pids  []int
	}
	known := make(map[alps.TaskID]binding, len(cur.Tasks))
	for _, t := range cur.Tasks {
		b := binding{share: t.Share}
		for _, p := range t.PIDs {
			b.pids = append(b.pids, p.PID)
		}
		known[t.ID] = b
	}
	for _, ct := range d.Tasks {
		id := alps.TaskID(ct.ID)
		if ct.Remove {
			rc.Remove = append(rc.Remove, id)
			continue
		}
		b, exists := known[id]
		if !exists {
			rc.Add = append(rc.Add, alps.RunnerTask{ID: id, Share: ct.Share, PIDs: ct.PIDs})
			continue
		}
		if ct.Share > 0 && ct.Share != b.share {
			if rc.SetShares == nil {
				rc.SetShares = make(map[alps.TaskID]int64)
			}
			rc.SetShares[id] = ct.Share
		}
		if len(ct.PIDs) > 0 && !samePIDs(ct.PIDs, b.pids) {
			if rc.SetPIDs == nil {
				rc.SetPIDs = make(map[alps.TaskID][]int)
			}
			rc.SetPIDs[id] = ct.PIDs
		}
	}
	return rc, nil
}

func samePIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(b))
	for _, p := range b {
		in[p] = true
	}
	for _, p := range a {
		if !in[p] {
			return false
		}
	}
	return true
}

func emptyReconfig(rc alps.Reconfig) bool {
	return rc.Quantum == 0 && len(rc.SetShares) == 0 && len(rc.SetPIDs) == 0 &&
		len(rc.Add) == 0 && len(rc.Remove) == 0
}

// auditReconfig validates the document's auditor thresholds against aud
// and returns the deferred apply step. Validation is split from
// application so a document that also carries a runner change keeps the
// all-or-nothing contract: both halves are checked before either is
// applied. Zero fields mean "leave unchanged".
func (d configDoc) auditReconfig(aud *trace.Auditor) (apply func(), err error) {
	if d.AuditWindow == 0 && d.AuditDrift == 0 {
		return func() {}, nil
	}
	if d.AuditWindow < 0 {
		return nil, fmt.Errorf("audit_window must be positive, got %d", d.AuditWindow)
	}
	if d.AuditDrift < 0 {
		return nil, fmt.Errorf("audit_drift must be positive, got %v", d.AuditDrift)
	}
	return func() { aud.Reconfigure(d.AuditWindow, d.AuditDrift) }, nil
}

// apply is the one path every live change takes: the -config file, a
// POST to /admin/config and a coordinator assignment. It validates both
// halves of the document — the runner batch diffed against r's current
// state and the auditor thresholds — before applying either, so a
// rejected document changes nothing.
func (d configDoc) apply(r *alps.Runner, aud *trace.Auditor) error {
	rc, err := d.toReconfig(r.State())
	if err != nil {
		return err
	}
	applyAudit, err := d.auditReconfig(aud)
	if err != nil {
		return err
	}
	if !emptyReconfig(rc) {
		if err := r.Reconfigure(rc); err != nil {
			return err
		}
	}
	applyAudit()
	return nil
}

// applyConfigFile reads the -config document at path and applies it.
func applyConfigFile(r *alps.Runner, aud *trace.Auditor, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := parseConfigDoc(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return doc.apply(r, aud)
}

// adminConfigHandler serves /admin/config: GET returns the current
// configuration as a configDoc (including the auditor's live
// thresholds), POST applies one (400 with the validation error on
// rejection, so a bad document changes nothing).
func adminConfigHandler(r *alps.Runner, aud *trace.Auditor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			writeConfigDoc(w, r.State(), aud)
		case http.MethodPost:
			// MaxBytesReader (not a bare LimitReader) closes the
			// connection on overrun, so an oversized or endless body
			// cannot hold the handler while being streamed and thrown
			// away; the operator sees an explicit 413.
			doc, err := parseConfigDoc(http.MaxBytesReader(w, req.Body, maxConfigBytes))
			if err != nil {
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					http.Error(w, fmt.Sprintf("config document over %d bytes", maxConfigBytes), http.StatusRequestEntityTooLarge)
					return
				}
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := doc.apply(r, aud); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeConfigDoc(w, r.State(), aud)
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		}
	})
}

func writeConfigDoc(w http.ResponseWriter, st alps.RunnerState, aud *trace.Auditor) {
	doc := configDoc{Quantum: st.BaseQuantum.String()}
	doc.AuditWindow, doc.AuditDrift = aud.Thresholds()
	for _, t := range st.Tasks {
		ct := configTask{ID: int64(t.ID), Share: t.Share}
		for _, p := range t.PIDs {
			ct.PIDs = append(ct.PIDs, p.PID)
		}
		doc.Tasks = append(doc.Tasks, ct)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
