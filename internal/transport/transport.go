// Package transport provides the in-process message fabric connecting peer
// servers. It reproduces the communication structure of SHORE described in
// the paper's §3.2: each pair of peers is connected by several independent
// paths; message order is preserved along a path, but messages sent on
// different paths may arrive — and be handled — out of order. This loose
// ordering is what gives rise to the callback, purge, and deescalation
// races the consistency algorithm must tolerate.
package transport

import (
	"errors"
	"time"

	"adaptivecc/internal/sim"
)

// ErrClosed is returned by Send once the fabric has been shut down. Such
// sends are dropped and counted as CtrNetDrops, like unroutable ones
// (ErrNoRoute): a send onto a full path blocks until the path drains,
// preserving FIFO order, instead of failing.
var ErrClosed = errors.New("transport: network closed")

// Message is one datagram between peers. Payload is an arbitrary
// protocol-defined value; CarriesPage marks messages that ship a whole page
// and therefore pay the per-page cost.
type Message struct {
	From        string
	To          string
	Kind        string
	CarriesPage bool
	Payload     any
}

// Handler receives delivered messages. Each delivery runs in its own
// goroutine (the receiving "thread"), so handlers may block.
type Handler func(Message)

// AnyPath requests a randomly chosen path, which is how most protocol
// traffic travels; a non-negative hint pins the message to one path so
// that two messages are guaranteed to stay ordered.
const AnyPath = -1

// Network is the simulated Fabric: every endpoint lives in this process,
// and a path charges the wire latency of each message in FIFO order before
// delivering it.
type Network struct {
	fabric[*path]
}

// NewNetwork builds a network where every ordered pair of endpoints is
// connected by numPaths independent FIFO paths (at least 1).
func NewNetwork(costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64) *Network {
	n := &Network{}
	n.setup(n, costs, stats, numPaths, seed)
	return n
}

// routable is false: a Network reaches only its registered endpoints.
func (n *Network) routable(string) bool { return false }

// openPath starts one simulated path: its pump sleeps the wire latency per
// message, then hands the message to dst in a new goroutine.
func (n *Network) openPath(_ linkKey, _ int, dst *node) *path {
	p := newPath()
	go n.run(p, func(msg Message) {
		if d := n.costs.Scaled(n.costs.MsgLatency); d > 0 {
			time.Sleep(d)
		}
		n.deliver(dst, msg)
	})
	return p
}

// stopped has nothing to release: a Network is only the core's paths.
func (n *Network) stopped() {}
