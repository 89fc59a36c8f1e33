// Package lottery implements lottery scheduling (Waldspurger & Weihl,
// OSDI 1994): each quantum, a ticket is drawn uniformly at random and the
// holding client runs. Allocation is proportional in expectation with
// binomially distributed error — the probabilistic counterpart to the
// deterministic stride scheduler, included as a second reference
// proportional-share baseline for the comparison benches.
package lottery

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrNoClients is returned by Next when the scheduler is empty.
var ErrNoClients = errors.New("lottery: no clients")

// ErrBadTickets is returned when a ticket count is not positive.
var ErrBadTickets = errors.New("lottery: tickets must be positive")

// ErrExists is returned by Add for a duplicate client ID.
var ErrExists = errors.New("lottery: client already registered")

type client struct {
	id      int64
	tickets int64
}

// Scheduler is a seeded lottery scheduler over int64 client IDs.
type Scheduler struct {
	rng     *rand.Rand
	clients []client
	known   map[int64]bool
	total   int64
	alloc   map[int64]int64
}

// New creates an empty lottery scheduler with a deterministic seed.
func New(seed int64) *Scheduler {
	return &Scheduler{
		rng:   rand.New(rand.NewSource(seed)),
		known: make(map[int64]bool),
		alloc: make(map[int64]int64),
	}
}

// Add registers a client holding the given number of tickets.
func (s *Scheduler) Add(id, tickets int64) error {
	if tickets <= 0 {
		return fmt.Errorf("%w: client %d tickets %d", ErrBadTickets, id, tickets)
	}
	if s.known[id] {
		return fmt.Errorf("%w: %d", ErrExists, id)
	}
	s.known[id] = true
	s.clients = append(s.clients, client{id: id, tickets: tickets})
	s.total += tickets
	return nil
}

// Next draws a ticket and returns the winning client for the next
// quantum.
func (s *Scheduler) Next() (int64, error) {
	if len(s.clients) == 0 {
		return 0, ErrNoClients
	}
	draw := s.rng.Int63n(s.total)
	for _, c := range s.clients {
		if draw < c.tickets {
			s.alloc[c.id]++
			return c.id, nil
		}
		draw -= c.tickets
	}
	// Unreachable: draws are bounded by the ticket total.
	panic("lottery: ticket draw out of range")
}

// Allocated returns how many quanta a client has received.
func (s *Scheduler) Allocated(id int64) int64 { return s.alloc[id] }
