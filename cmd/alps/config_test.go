package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alps"
	"alps/internal/osproc"
	"alps/internal/trace"
)

func twoTaskState() alps.RunnerState {
	return alps.RunnerState{
		Tasks: []osproc.TaskRecord{
			{ID: 0, Share: 1, PIDs: []osproc.PIDRecord{{PID: 100, Start: 1}}},
			{ID: 1, Share: 3, PIDs: []osproc.PIDRecord{{PID: 200, Start: 2}}},
		},
		BaseQuantum: 20 * time.Millisecond,
	}
}

// toReconfig is a diff: entries matching the current state produce no
// change, so re-applying a document is idempotent.
func TestConfigDocDiff(t *testing.T) {
	cur := twoTaskState()

	same := configDoc{Quantum: "20ms", Tasks: []configTask{
		{ID: 0, Share: 1, PIDs: []int{100}},
		{ID: 1, Share: 3, PIDs: []int{200}},
	}}
	rc, err := same.toReconfig(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !emptyReconfig(rc) {
		t.Errorf("identical document produced changes: %+v", rc)
	}

	changed := configDoc{Quantum: "40ms", Tasks: []configTask{
		{ID: 0, Share: 2},                   // share update
		{ID: 1, PIDs: []int{200, 201}},      // rebind
		{ID: 2, Share: 1, PIDs: []int{300}}, // new task -> add
		{ID: 3, Remove: true},               // remove
	}}
	rc, err = changed.toReconfig(cur)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Quantum != 40*time.Millisecond {
		t.Errorf("quantum = %v, want 40ms", rc.Quantum)
	}
	if rc.SetShares[0] != 2 || len(rc.SetShares) != 1 {
		t.Errorf("SetShares = %v, want {0:2}", rc.SetShares)
	}
	if got := rc.SetPIDs[1]; len(got) != 2 {
		t.Errorf("SetPIDs = %v, want {1:[200 201]}", rc.SetPIDs)
	}
	if len(rc.Add) != 1 || rc.Add[0].ID != 2 || rc.Add[0].Share != 1 {
		t.Errorf("Add = %+v, want task 2 share 1", rc.Add)
	}
	if len(rc.Remove) != 1 || rc.Remove[0] != 3 {
		t.Errorf("Remove = %v, want [3]", rc.Remove)
	}
}

func TestConfigDocBadQuantum(t *testing.T) {
	if _, err := (configDoc{Quantum: "fast"}).toReconfig(twoTaskState()); err == nil {
		t.Error("unparseable quantum accepted")
	}
}

// auditReconfig validates before it applies: bad thresholds are
// rejected without touching anything, zero fields are a no-op, and valid
// fields land on the auditor only when the returned apply step runs.
func TestConfigDocAuditReconfig(t *testing.T) {
	aud := trace.NewAuditor(trace.AuditorConfig{Window: 8, DriftThreshold: 0.5})

	if apply, err := (configDoc{}).auditReconfig(aud); err != nil {
		t.Fatalf("empty audit fields rejected: %v", err)
	} else {
		apply() // no-op must really be one
	}
	if w, d := aud.Thresholds(); w != 8 || d != 0.5 {
		t.Fatalf("no-op apply moved thresholds to (%d, %v)", w, d)
	}

	for _, bad := range []configDoc{
		{AuditWindow: -4},
		{AuditDrift: -0.1},
	} {
		if _, err := bad.auditReconfig(aud); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}

	apply, err := (configDoc{AuditWindow: 16, AuditDrift: 0.2}).auditReconfig(aud)
	if err != nil {
		t.Fatal(err)
	}
	if w, d := aud.Thresholds(); w != 8 || d != 0.5 {
		t.Fatalf("validation already applied: (%d, %v)", w, d)
	}
	apply()
	if w, d := aud.Thresholds(); w != 16 || d != 0.2 {
		t.Fatalf("apply gave (%d, %v), want (16, 0.2)", w, d)
	}
}

// /admin/config round-trips the auditor thresholds: GET reports them,
// POST retunes them live alongside the runner document, and a rejected
// document leaves both the runner and the auditor untouched.
func TestAdminConfigAuditThresholds(t *testing.T) {
	r, _ := newAdminRunner(t)
	aud := trace.NewAuditor(trace.AuditorConfig{Window: 32, DriftThreshold: 0.10})
	h := adminConfigHandler(r, aud)

	do := func(method, body string) (int, configDoc) {
		t.Helper()
		req := httptest.NewRequest(method, "/admin/config", strings.NewReader(body))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		var doc configDoc
		if rw.Code == http.StatusOK {
			if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
				t.Fatalf("bad response document: %v", err)
			}
		}
		return rw.Code, doc
	}

	if code, doc := do(http.MethodGet, ""); code != http.StatusOK ||
		doc.AuditWindow != 32 || doc.AuditDrift != 0.10 {
		t.Fatalf("GET = %d %+v, want 200 with audit_window 32, audit_drift 0.1", code, doc)
	}

	code, doc := do(http.MethodPost, `{"audit_window":16,"audit_drift":0.2,"tasks":[{"id":0,"share":5}]}`)
	if code != http.StatusOK || doc.AuditWindow != 16 || doc.AuditDrift != 0.2 {
		t.Fatalf("POST = %d %+v, want 200 with audit_window 16, audit_drift 0.2", code, doc)
	}
	if w, d := aud.Thresholds(); w != 16 || d != 0.2 {
		t.Fatalf("auditor thresholds = (%d, %v), want (16, 0.2)", w, d)
	}

	// A document whose audit half is invalid must not apply its runner
	// half either (validate-then-apply covers the whole document).
	if code, _ := do(http.MethodPost, `{"audit_window":-1,"tasks":[{"id":0,"share":7}]}`); code != http.StatusBadRequest {
		t.Fatalf("invalid audit_window = %d, want 400", code)
	}
	for _, tk := range r.State().Tasks {
		if tk.ID == 0 && tk.Share != 5 {
			t.Errorf("rejected document changed task 0 share to %d", tk.Share)
		}
	}
	if w, d := aud.Thresholds(); w != 16 || d != 0.2 {
		t.Errorf("rejected document moved thresholds to (%d, %v)", w, d)
	}
}

// Unknown fields are rejected so a typo ("sahre") cannot silently apply
// an empty change.
func TestParseConfigDocStrict(t *testing.T) {
	if _, err := parseConfigDoc(strings.NewReader(`{"tasks":[{"id":0,"sahre":5}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	doc, err := parseConfigDoc(strings.NewReader(`{"quantum":"20ms","tasks":[{"id":0,"share":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Quantum != "20ms" || len(doc.Tasks) != 1 || doc.Tasks[0].Share != 5 {
		t.Errorf("doc = %+v", doc)
	}
}
