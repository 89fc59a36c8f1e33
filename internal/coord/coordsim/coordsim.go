// Package coordsim is a deterministic fault harness for the coord
// control plane: a shared virtual clock and an in-memory network of
// named HTTP hosts, with scriptable partitions, duplicated deliveries
// and host kills injected at the http.RoundTripper layer. The chaos e2e
// tests route every coord.Agent and coord.Server through one Net and
// read one Clock, so an entire fleet — coordinator crashes, partitions,
// lease expiries — plays out in virtual time with no sockets, no
// goroutine sleeps and no flaky timing. Clock is the one virtual clock
// of the coord tests; a simulated shard's runner reads its
// osproc.FaultSys clock instead, which the scenario advances in step
// with this one.
package coordsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Clock is the simulation's shared virtual clock. Every component in a
// simulated fleet (coordinator, agents, runners) must read time from
// the same Clock or leases and heartbeats drift apart.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts a clock at a fixed, arbitrary epoch (wall time is
// deliberately not consulted: runs are reproducible).
func NewClock() *Clock {
	return &Clock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Net is the simulated network: named hosts and the fault rules between
// them. All methods are safe for concurrent use.
type Net struct {
	mu          sync.Mutex
	hosts       map[string]http.Handler
	killed      map[string]bool
	partitioned map[string]bool // key "a|b", symmetric
	dupes       map[string]int  // host → remaining requests to deliver twice

	// Duplicated counts duplicated deliveries, for assertions.
	Duplicated int
}

// NewNet builds an empty network.
func NewNet() *Net {
	return &Net{
		hosts:       make(map[string]http.Handler),
		killed:      make(map[string]bool),
		partitioned: make(map[string]bool),
		dupes:       make(map[string]int),
	}
}

// Host registers (or replaces) a named host's handler. Re-registering a
// name models a process restart: the new handler serves from then on.
func (n *Net) Host(name string, h http.Handler) {
	n.mu.Lock()
	n.hosts[name] = h
	n.killed[name] = false
	n.mu.Unlock()
}

// Kill makes every request to host fail with a connection error until
// Host or Revive brings it back. The handler is kept (a SIGSTOPped or
// crashed-but-restartable process).
func (n *Net) Kill(name string) {
	n.mu.Lock()
	n.killed[name] = true
	n.mu.Unlock()
}

// Revive undoes Kill without replacing the handler.
func (n *Net) Revive(name string) {
	n.mu.Lock()
	n.killed[name] = false
	n.mu.Unlock()
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Partition severs both directions between two hosts until Heal.
func (n *Net) Partition(a, b string) {
	n.mu.Lock()
	n.partitioned[pairKey(a, b)] = true
	n.mu.Unlock()
}

// Heal restores the link between two hosts.
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	delete(n.partitioned, pairKey(a, b))
	n.mu.Unlock()
}

// Duplicate makes the next count requests to host be delivered twice —
// the caller sees the second response, the handler sees both requests.
// Models an at-least-once retry layer re-sending a non-idempotent POST.
func (n *Net) Duplicate(host string, count int) {
	n.mu.Lock()
	n.dupes[host] += count
	n.mu.Unlock()
}

// Transport returns the RoundTripper a component at `from` should use;
// requests route by URL host and pass through the fault rules.
func (n *Net) Transport(from string) http.RoundTripper {
	return &transport{net: n, from: from}
}

type transport struct {
	net  *Net
	from string
}

// errNet is the connection-level error surfaced for killed or
// partitioned deliveries — the same class a real dial failure produces,
// which coord.Agent classifies as retryable.
type errNet struct{ msg string }

func (e errNet) Error() string   { return e.msg }
func (e errNet) Timeout() bool   { return true }
func (e errNet) Temporary() bool { return true }

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	n := t.net

	n.mu.Lock()
	h, ok := n.hosts[host]
	killed := n.killed[host]
	parted := n.partitioned[pairKey(t.from, host)]
	duped := n.dupes[host] > 0
	if duped {
		n.dupes[host]--
		n.Duplicated++
	}
	n.mu.Unlock()

	switch {
	case !ok:
		return nil, errNet{fmt.Sprintf("coordsim: no such host %q", host)}
	case killed:
		return nil, errNet{fmt.Sprintf("coordsim: connect %s: connection refused (killed)", host)}
	case parted:
		return nil, errNet{fmt.Sprintf("coordsim: %s -> %s: network partitioned", t.from, host)}
	}

	// Buffer the body so a duplicated delivery can replay it.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	deliver := func() *response {
		r2 := req.Clone(req.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		w := &response{header: make(http.Header)}
		h.ServeHTTP(w, r2)
		return w
	}
	w := deliver()
	if duped {
		w = deliver() // caller sees the second delivery's response
	}
	return w.result(req), nil
}

// response is a minimal in-memory http.ResponseWriter; coordsim lives
// in non-test code, so it does not reach for httptest.
type response struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *response) result(req *http.Request) *http.Response {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return &http.Response{
		StatusCode:    w.code,
		Status:        fmt.Sprintf("%d %s", w.code, http.StatusText(w.code)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(bytes.NewReader(w.body.Bytes())),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}
}
