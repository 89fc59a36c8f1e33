// Package stride implements stride scheduling (Waldspurger & Weihl,
// "Stride Scheduling: Deterministic Proportional-Share Resource
// Management", MIT/LCS/TM-528, 1995) — the paper's reference [26] and the
// canonical in-kernel proportional-share algorithm ALPS is an
// application-level alternative to.
//
// Each client holds tickets; its stride is Stride1/tickets, and the
// scheduler always runs the client with the smallest pass value,
// advancing that pass by the stride. Allocation error is bounded by a
// single quantum per client, independent of run length — the gold
// standard the ALPS evaluation's accuracy numbers can be compared
// against (the comparison harness is internal/exp's baseline bench).
package stride

import (
	"container/heap"
	"errors"
	"fmt"
)

// Stride1 is the large fixed-point constant strides are derived from.
const Stride1 = 1 << 20

// ErrNoClients is returned by Next when the scheduler is empty.
var ErrNoClients = errors.New("stride: no clients")

// ErrBadTickets is returned when a ticket count is not positive.
var ErrBadTickets = errors.New("stride: tickets must be positive")

// ErrExists is returned by Add for a duplicate client ID.
var ErrExists = errors.New("stride: client already registered")

// ErrNoClient is returned for operations on an unknown client.
var ErrNoClient = errors.New("stride: no such client")

// client is one ticket holder.
type client struct {
	id      int64
	tickets int64
	stride  int64
	pass    int64
}

type clientHeap []*client

func (h clientHeap) Len() int { return len(h) }
func (h clientHeap) Less(i, j int) bool {
	if h[i].pass != h[j].pass {
		return h[i].pass < h[j].pass
	}
	return h[i].id < h[j].id // deterministic tie-break
}
func (h clientHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *clientHeap) Push(x any)   { *h = append(*h, x.(*client)) }
func (h *clientHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

// Scheduler is a stride scheduler over int64 client IDs.
type Scheduler struct {
	clients map[int64]*client
	heap    clientHeap
	// global pass, advanced by the global stride each quantum, anchors
	// joining clients.
	globalPass    int64
	globalTickets int64
	quanta        int64
	alloc         map[int64]int64
}

// New creates an empty stride scheduler.
func New() *Scheduler {
	return &Scheduler{
		clients: make(map[int64]*client),
		alloc:   make(map[int64]int64),
	}
}

// Add registers a client with the given ticket count. Its pass starts at
// the current global pass, so it competes fairly from now on without
// back-pay.
func (s *Scheduler) Add(id, tickets int64) error {
	if tickets <= 0 {
		return fmt.Errorf("%w: client %d tickets %d", ErrBadTickets, id, tickets)
	}
	if _, ok := s.clients[id]; ok {
		return fmt.Errorf("%w: %d", ErrExists, id)
	}
	c := &client{id: id, tickets: tickets, stride: Stride1 / tickets}
	c.pass = s.globalPass + c.stride
	s.clients[id] = c
	s.globalTickets += tickets
	heap.Push(&s.heap, c)
	return nil
}

// Tickets returns a client's ticket count.
func (s *Scheduler) Tickets(id int64) (int64, error) {
	c, ok := s.clients[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoClient, id)
	}
	return c.tickets, nil
}

// Next selects the client to run for the next quantum: the minimum pass,
// advanced by its stride.
func (s *Scheduler) Next() (int64, error) {
	if len(s.heap) == 0 {
		return 0, ErrNoClients
	}
	c := s.heap[0]
	c.pass += c.stride
	heap.Fix(&s.heap, 0)
	if s.globalTickets > 0 {
		s.globalPass += Stride1 / s.globalTickets
	}
	s.quanta++
	s.alloc[c.id]++
	return c.id, nil
}

// Quanta returns the number of scheduling decisions made.
func (s *Scheduler) Quanta() int64 { return s.quanta }

// Allocated returns how many quanta a client has received.
func (s *Scheduler) Allocated(id int64) int64 { return s.alloc[id] }
