// Package tx provides transaction identity and lifecycle bookkeeping for
// the peer-servers system: global transaction IDs, states, the set of
// owners a transaction has spread to, and a per-site registry. The cache
// consistency protocol in internal/core drives these objects.
package tx

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"adaptivecc/internal/lock"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota + 1
	Committing
	Committed
	Aborted
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committing:
		return "committing"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrNotActive is returned by operations on finished transactions.
var ErrNotActive = errors.New("tx: transaction not active")

// Tx is the master-site record of one transaction.
type Tx struct {
	ID lock.TxID

	mu     sync.Mutex
	state  State
	spread map[string]bool // owners this transaction has contacted
	wrote  map[string]bool // owners holding updates of this transaction
}

// NewTx returns an active transaction record.
func NewTx(id lock.TxID) *Tx {
	return &Tx{
		ID:     id,
		state:  Active,
		spread: make(map[string]bool),
		wrote:  make(map[string]bool),
	}
}

// State reports the current state.
func (t *Tx) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Active reports whether the transaction may still run operations.
func (t *Tx) Active() bool { return t.State() == Active }

// Spread records that the transaction contacted owner. It fails if the
// transaction is no longer active.
func (t *Tx) Spread(owner string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return ErrNotActive
	}
	t.spread[owner] = true
	return nil
}

// MarkWrote records that owner holds updates of this transaction.
func (t *Tx) MarkWrote(owner string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spread[owner] = true
	t.wrote[owner] = true
}

// SpreadSet lists the owners contacted, sorted for determinism.
func (t *Tx) SpreadSet() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.spread))
	for o := range t.spread {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// WroteSet lists the owners holding this transaction's updates, sorted.
func (t *Tx) WroteSet() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.wrote))
	for o := range t.wrote {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// BeginCommit transitions Active -> Committing.
func (t *Tx) BeginCommit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return ErrNotActive
	}
	t.state = Committing
	return nil
}

// Finish sets the terminal state (Committed or Aborted).
func (t *Tx) Finish(s State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state = s
}

// Registry issues transaction IDs and tracks live transactions at one site.
type Registry struct {
	site string

	mu   sync.Mutex
	next uint64
	live map[lock.TxID]*Tx
}

// NewRegistry returns a registry for the named site.
func NewRegistry(site string) *Registry {
	return &Registry{site: site, next: 1, live: make(map[lock.TxID]*Tx)}
}

// Begin creates and registers a new active transaction.
func (r *Registry) Begin() *Tx {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := lock.TxID{Site: r.site, Seq: r.next}
	r.next++
	t := NewTx(id)
	r.live[id] = t
	return t
}

// Get looks up a live transaction.
func (r *Registry) Get(id lock.TxID) (*Tx, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.live[id]
	return t, ok
}

// Remove unregisters a finished transaction.
func (r *Registry) Remove(id lock.TxID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, id)
}

// Live reports the number of live transactions.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}
