package transport

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
)

// tcpTestPayload is the gob-registered payload used by fabric-level TCP
// tests (interface payloads must be registered to cross the wire).
type tcpTestPayload struct{ V int }

func init() { RegisterWireType(tcpTestPayload{}) }

func newTestTCP(t *testing.T, paths int) (*TCP, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	tc, err := NewTCP(sim.DefaultCosts(0), stats, paths, 1, TCPOptions{
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	return tc, stats
}

// fabricCases are both fabrics over the shared send path, for the table
// tests of its counter discipline: the simulated Network and a loopback
// TCP fabric. Each case's fabric closes at test cleanup.
var fabricCases = []struct {
	name string
	make func(t *testing.T, paths int) (Fabric, *sim.Stats)
}{
	{"network", func(t *testing.T, paths int) (Fabric, *sim.Stats) {
		n, stats := newTestNetwork(t, paths)
		t.Cleanup(n.Close)
		return n, stats
	}},
	{"tcp", func(t *testing.T, paths int) (Fabric, *sim.Stats) { return newTestTCP(t, paths) }},
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTCPSendDelivers(t *testing.T) {
	tc, stats := newTestTCP(t, 2)
	got := make(chan Message, 1)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(m Message) { got <- m })

	err := tc.Send(Message{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: 42}}, AnyPath)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		p, ok := m.Payload.(tcpTestPayload)
		if !ok || p.V != 42 || m.From != "a" || m.Kind != "ping" {
			t.Errorf("message = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered over loopback")
	}
	if stats.Get(sim.CtrMessages) != 1 {
		t.Errorf("messages = %d", stats.Get(sim.CtrMessages))
	}
	if stats.Get(sim.CtrTCPConns) < 1 {
		t.Errorf("tcp conns = %d, want >= 1", stats.Get(sim.CtrTCPConns))
	}
}

// TestTCPCountsBeforeDelivery plays ping-pong on each fabric: message k is
// the k-th send of the run, and its handler sends message k+1. Every
// handler must already see message k in the counters — the sender counts
// before the enqueue, so a reply's reader never observes its own request
// uncounted.
func TestTCPCountsBeforeDelivery(t *testing.T) {
	for _, fc := range fabricCases {
		t.Run(fc.name, func(t *testing.T) {
			f, stats := fc.make(t, 2)
			const rounds = 300
			done := make(chan struct{})
			var mu sync.Mutex
			var bad []string
			bounce := func(self, peer string) Handler {
				return func(m Message) {
					k := m.Payload.(tcpTestPayload).V
					msgs, pages := stats.Get(sim.CtrMessages), stats.Get(sim.CtrPageTransfers)
					if msgs < int64(k) || pages < int64(k) {
						mu.Lock()
						bad = append(bad, fmt.Sprintf("message %d handled with messages=%d page_transfers=%d", k, msgs, pages))
						mu.Unlock()
					}
					if k == rounds {
						close(done)
						return
					}
					next := Message{From: self, To: peer, CarriesPage: true, Payload: tcpTestPayload{V: k + 1}}
					if err := f.Send(next, AnyPath); err != nil {
						t.Error(err)
					}
				}
			}
			register(t, f, "a", bounce("a", "b"))
			register(t, f, "b", bounce("b", "a"))
			if err := f.Send(Message{From: "a", To: "b", CarriesPage: true, Payload: tcpTestPayload{V: 1}}, AnyPath); err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("ping-pong stalled")
			}
			mu.Lock()
			defer mu.Unlock()
			for _, b := range bad {
				t.Error(b)
			}
		})
	}
}

func TestTCPAllMessagesArrive(t *testing.T) {
	tc, stats := newTestTCP(t, 3)
	var mu sync.Mutex
	seen := make(map[int]bool)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(m Message) {
		mu.Lock()
		seen[m.Payload.(tcpTestPayload).V] = true
		mu.Unlock()
	})
	const n = 200
	for i := 0; i < n; i++ {
		if err := tc.Send(Message{From: "a", To: "b", Payload: tcpTestPayload{V: i}}, AnyPath); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "all messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	})
	// Backpressure, never loss: accepted messages are not phantom-dropped.
	if got := stats.Get(sim.CtrNetDrops); got != 0 {
		t.Errorf("net drops = %d, want 0", got)
	}
}

// TestTCPDropAccounting pins, on each fabric, the counter discipline the
// peer layer relies on: CtrNetDrops counts only sends the fabric refused
// outright — closed fabric or unroutable destination — never wire-level
// socket loss.
func TestTCPDropAccounting(t *testing.T) {
	for _, fc := range fabricCases {
		t.Run(fc.name, func(t *testing.T) {
			f, stats := fc.make(t, 1)
			register(t, f, "a", func(Message) {})
			register(t, f, "b", func(Message) {})

			// Unroutable destination: refused, counted, surfaced as ErrNoRoute
			// (and explicitly NOT ErrClosed, so Peer.LastError records it).
			err := f.Send(Message{From: "a", To: "ghost"}, AnyPath)
			if !errors.Is(err, ErrNoRoute) {
				t.Fatalf("send to unroutable dest err = %v, want ErrNoRoute", err)
			}
			if errors.Is(err, ErrClosed) {
				t.Fatal("ErrNoRoute must not wrap ErrClosed: it is a misconfiguration, not an expected loss")
			}
			if got := stats.Get(sim.CtrNetDrops); got != 1 {
				t.Fatalf("net drops after unroutable send = %d, want 1", got)
			}

			// Unknown sender: a programming error, not a drop.
			if err := f.Send(Message{From: "nope", To: "b"}, AnyPath); err == nil {
				t.Error("send from unknown sender succeeded")
			}
			if got := stats.Get(sim.CtrNetDrops); got != 1 {
				t.Errorf("net drops after unknown-sender send = %d, want 1", got)
			}

			// Closed fabric: refused and counted.
			f.Close()
			if err := f.Send(Message{From: "a", To: "b"}, AnyPath); !errors.Is(err, ErrClosed) {
				t.Fatalf("send after close err = %v, want ErrClosed", err)
			}
			if got := stats.Get(sim.CtrNetDrops); got != 2 {
				t.Errorf("net drops after closed send = %d, want 2", got)
			}
		})
	}
}

func TestTCPCrashTearsDownSockets(t *testing.T) {
	tc, stats := newTestTCP(t, 1)
	delivered := make(chan struct{}, 16)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(Message) { delivered <- struct{}{} })

	if err := tc.Send(Message{From: "a", To: "b"}, AnyPath); err != nil {
		t.Fatal(err)
	}
	<-delivered

	if !tc.Crash("b") {
		t.Fatal("Crash returned false")
	}
	if !tc.Crashed("b") {
		t.Fatal("Crashed(b) = false after Crash")
	}
	// The death is a real connection-reset on the wire, not just a flag.
	waitUntil(t, 5*time.Second, "sockets torn down", func() bool {
		return tc.DropConnections("b") == 0
	})
	err := tc.Send(Message{From: "a", To: "b"}, AnyPath)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to crashed peer err = %v, want ErrPeerDown", err)
	}
	if got := stats.Get(sim.CtrCrashDrops); got < 1 {
		t.Errorf("crash drops = %d, want >= 1", got)
	}
	if got := stats.Get(sim.CtrNetDrops); got != 0 {
		t.Errorf("net drops = %d, want 0 (crash refusals are CtrCrashDrops)", got)
	}
}

// TestTCPReconnectAfterDrop severs every live socket mid-stream and checks
// the keepers redial: later sends are delivered and the reconnect counter
// moves, without any phantom CtrNetDrops.
func TestTCPReconnectAfterDrop(t *testing.T) {
	tc, stats := newTestTCP(t, 1)
	var mu sync.Mutex
	seen := make(map[int]bool)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(m Message) {
		mu.Lock()
		seen[m.Payload.(tcpTestPayload).V] = true
		mu.Unlock()
	})

	if err := tc.Send(Message{From: "a", To: "b", Payload: tcpTestPayload{V: 0}}, 0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "first message", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[0]
	})

	if n := tc.DropConnections("b"); n == 0 {
		t.Fatal("DropConnections severed nothing")
	}

	// Keep sending until one makes it through a redialed socket. Messages
	// shipped into the dead socket are lost in flight (real-wire loss) —
	// that is exactly the contract; we only require eventual delivery.
	waitUntil(t, 10*time.Second, "post-drop delivery", func() bool {
		_ = tc.Send(Message{From: "a", To: "b", Payload: tcpTestPayload{V: 1}}, 0)
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		return seen[1]
	})
	if got := stats.Get(sim.CtrTCPReconnects); got < 1 {
		t.Errorf("tcp reconnects = %d, want >= 1", got)
	}
	if got := stats.Get(sim.CtrNetDrops); got != 0 {
		t.Errorf("net drops = %d, want 0 (socket loss is not a refused send)", got)
	}
	// The redialled socket is a new stream on both ends: its first message
	// carried its own type descriptors (or V=1 could not have decoded), and
	// no decoder was ever shown a frame of the severed stream — either
	// would have killed a socket with ErrBadStream.
	if got := tc.StreamErrors(); got != 0 {
		t.Errorf("stream errors = %d, want 0 (codec state must die with its socket)", got)
	}
}

// TestTCPEncodeErrorResetsStream sends a payload type gob has never heard
// of, then a registered one, down the same path. The first can never
// travel and is accounted as refused; its failed Encode leaves the
// socket's encoder out of step with the peer's decoder, so the writer
// must drop the socket — the second message then arrives on a fresh
// stream instead of dying at the peer as an undecodable frame. Client and
// server are separate fabrics (only the client dials), so the client's
// counters show exactly the one redial.
func TestTCPEncodeErrorResetsStream(t *testing.T) {
	type unregistered struct{ V int }
	srv, _ := newTestTCP(t, 1)
	got := make(chan Message, 4)
	register(t, srv, "b", func(m Message) { got <- m })

	stats := sim.NewStats()
	cli, err := NewTCP(sim.DefaultCosts(0), stats, 1, 1, TCPOptions{
		Remotes:      map[string]string{"b": srv.Addr()},
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	register(t, cli, "a", func(Message) {})

	// V=0 establishes the stream, so the failure hits a live encoder.
	for _, payload := range []any{tcpTestPayload{V: 0}, unregistered{V: 1}, tcpTestPayload{V: 2}} {
		if err := cli.Send(Message{From: "a", To: "b", Payload: payload}, 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool) // handlers run one goroutine per message: any order
	for len(seen) < 2 {
		select {
		case m := <-got:
			p, ok := m.Payload.(tcpTestPayload)
			if !ok || (p.V != 0 && p.V != 2) {
				t.Fatalf("delivered %+v, want the two registered messages", m)
			}
			seen[p.V] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("registered messages delivered = %v, want V=0 and V=2", seen)
		}
	}
	if got := stats.Get(sim.CtrNetDrops); got != 1 {
		t.Errorf("net drops = %d, want 1 (the unencodable message, refused)", got)
	}
	if got := stats.Get(sim.CtrMessages); got != 2 {
		t.Errorf("messages = %d, want 2 (the unencodable one is uncounted)", got)
	}
	if got := stats.Get(sim.CtrTCPReconnects); got != 1 {
		t.Errorf("tcp reconnects = %d, want 1 (the one real redial)", got)
	}
	if got := srv.StreamErrors(); got != 0 {
		t.Errorf("stream errors at the receiver = %d, want 0", got)
	}
}

// TestTCPRefusedSendUncounted sends a page-carrying message whose payload
// gob cannot encode. The fabric refuses it at encode time, so it must take
// back both counts the send made: messages and page_transfers.
func TestTCPRefusedSendUncounted(t *testing.T) {
	type unregistered struct{ V int }
	tc, stats := newTestTCP(t, 1)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(Message) {})
	if err := tc.Send(Message{From: "a", To: "b", CarriesPage: true, Payload: unregistered{1}}, 0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the refused send", func() bool { return stats.Get(sim.CtrNetDrops) == 1 })
	if m, p := stats.Get(sim.CtrMessages), stats.Get(sim.CtrPageTransfers); m != 0 || p != 0 {
		t.Errorf("messages = %d, page_transfers = %d after a refused send, want 0 and 0", m, p)
	}
}

// TestTCPMixedFormatsOneSocket interleaves binary and gob frames on one
// path, hence one socket, with a gob type first seen mid-stream. The
// binary frames must leave the connection's gob stream intact: everything
// arrives, in order, and no socket dies of a stream error.
func TestTCPMixedFormatsOneSocket(t *testing.T) {
	tc, stats := newTestTCP(t, 1)
	const n = 90
	got := make(chan Message, n)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(m Message) { got <- m })
	want := make(map[int]any, n)
	for i := 0; i < n; i++ {
		var p any = binPayload{N: uint64(i), S: "bin"}
		switch {
		case i%3 == 1:
			p = tcpTestPayload{V: i}
		case i%3 == 2 && i > n/2:
			p = latePayload{Tag: "late", Vals: []uint64{uint64(i)}}
		}
		want[i] = p
		if err := tc.Send(Message{From: "a", To: "b", Kind: "mix", Payload: p}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for len(want) > 0 {
		select {
		case m := <-got:
			var i int
			switch p := m.Payload.(type) {
			case binPayload:
				i = int(p.N)
			case tcpTestPayload:
				i = p.V
			case latePayload:
				i = int(p.Vals[0])
			}
			if !reflect.DeepEqual(m.Payload, want[i]) {
				t.Fatalf("message %d arrived as %+v, want %+v", i, m.Payload, want[i])
			}
			delete(want, i)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d messages never arrived", len(want), n)
		}
	}
	if got := tc.StreamErrors(); got != 0 {
		t.Errorf("stream errors = %d, want 0", got)
	}
	if got := stats.Get(sim.CtrTCPReconnects); got != 0 {
		t.Errorf("tcp reconnects = %d, want 0: one socket carried every frame", got)
	}
}

// TestTCPFaultDecisionsMatchNetwork feeds the same seeded FaultPlan to both
// fabrics and checks that the injected-fault and sent-message counters
// agree: the per-link decision streams are shared via faultHost, and the
// drop, dup and delay branches are the shared send path's, so a drop on
// the Network is a drop on TCP for the same send sequence.
func TestTCPFaultDecisionsMatchNetwork(t *testing.T) {
	plan := FaultPlan{Seed: 7, DropProb: 0.3, DupProb: 0.2, DelayProb: 0.3}
	ctrs := []string{sim.CtrFaultDrops, sim.CtrFaultDups, sim.CtrFaultDelays, sim.CtrMessages, sim.CtrPageTransfers}
	got := make(map[string][]int64)
	for _, fc := range fabricCases {
		f, stats := fc.make(t, 1)
		var handled atomic.Int64
		register(t, f, "a", func(Message) {})
		register(t, f, "b", func(Message) { handled.Add(1) })
		f.InjectFaults(plan)
		for i := 0; i < 100; i++ {
			if err := f.Send(Message{From: "a", To: "b", CarriesPage: i%2 == 0, Payload: tcpTestPayload{V: i}}, 0); err != nil {
				t.Fatal(err)
			}
		}
		// Close only once every counted message has arrived: a TCP writer
		// still waiting for its first socket at Close takes its messages back.
		waitUntil(t, 10*time.Second, fc.name+" deliveries", func() bool {
			return handled.Load() == stats.Get(sim.CtrMessages)
		})
		f.Close()
		for _, c := range ctrs {
			got[fc.name] = append(got[fc.name], stats.Get(c))
		}
	}
	if !reflect.DeepEqual(got["network"], got["tcp"]) {
		t.Errorf("fabrics diverge on %v: network %v, tcp %v", ctrs, got["network"], got["tcp"])
	}
	for i, c := range ctrs[:3] {
		if got["network"][i] == 0 {
			t.Errorf("fault plan injected no %s; test is vacuous", c)
		}
	}
}

// TestTCPObsInstrumentation attaches an obs Set to a loopback fabric and
// checks the per-path telemetry: frame-size and frame-write histograms
// fill on traffic, and every path exports a queue-depth gauge.
func TestTCPObsInstrumentation(t *testing.T) {
	tc, stats := newTestTCP(t, 2)
	set := obs.NewSet(obs.Config{Enabled: true, TraceCap: 8}, stats)
	tc.AttachObs(set)

	got := make(chan Message, 8)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(m Message) { got <- m })
	for i := 0; i < 4; i++ {
		if err := tc.Send(Message{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: i}}, AnyPath); err != nil {
			t.Fatal(err)
		}
		<-got
	}

	fs := set.Merged(obs.HistTCPFrameSize)
	if fs.Count != 4 {
		t.Errorf("frame-size observations = %d, want 4", fs.Count)
	}
	if fs.Sum <= 0 {
		t.Errorf("frame-size sum = %d, want > 0 (raw bytes)", fs.Sum)
	}
	// The writer records a frame's write latency after the write returns,
	// which the receiver's delivery of that frame can overtake.
	waitUntil(t, 5*time.Second, "4 frame-write observations", func() bool {
		return set.Merged(obs.HistTCPFrameWrite).Count == 4
	})

	depth := 0
	for _, gv := range set.GaugeValues() {
		if gv.Name == "tcp_queue_depth" {
			depth++
			if gv.Labels["link"] == "" || gv.Labels["path"] == "" {
				t.Errorf("queue gauge missing labels: %+v", gv)
			}
		}
	}
	// One gauge per path of the a->b link; the reverse link is accept-fed
	// and also instrumented once created.
	if depth < tc.NumPaths() {
		t.Errorf("queue-depth gauges = %d, want >= %d", depth, tc.NumPaths())
	}
}

// TestTCPObsBackoff points a keeper at a dead address: every failed dial
// records its backoff sleep in the reconnect-backoff histogram.
func TestTCPObsBackoff(t *testing.T) {
	stats := sim.NewStats()
	tc, err := NewTCP(sim.DefaultCosts(0), stats, 1, 1, TCPOptions{
		ReconnectMin: time.Millisecond,
		ReconnectMax: 5 * time.Millisecond,
		DialTimeout:  50 * time.Millisecond,
		Remotes:      map[string]string{"dead": "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	set := obs.NewSet(obs.Config{Enabled: true, TraceCap: 8}, stats)
	tc.AttachObs(set)
	register(t, tc, "a", func(Message) {})

	if err := tc.Send(Message{From: "a", To: "dead", Kind: "ping", Payload: tcpTestPayload{V: 1}}, AnyPath); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "backoff observations", func() bool {
		return set.Merged(obs.HistTCPBackoff).Count >= 2
	})
}

// TestTCPAttachObsAfterPaths instruments a fabric whose paths already
// exist: AttachObs must retrofit them.
func TestTCPAttachObsAfterPaths(t *testing.T) {
	tc, stats := newTestTCP(t, 1)
	got := make(chan Message, 1)
	register(t, tc, "a", func(Message) {})
	register(t, tc, "b", func(m Message) { got <- m })
	if err := tc.Send(Message{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: 1}}, AnyPath); err != nil {
		t.Fatal(err)
	}
	<-got

	set := obs.NewSet(obs.Config{Enabled: true, TraceCap: 8}, stats)
	tc.AttachObs(set)
	if err := tc.Send(Message{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: 2}}, AnyPath); err != nil {
		t.Fatal(err)
	}
	<-got
	waitUntil(t, 5*time.Second, "retrofitted frame observations", func() bool {
		return set.Merged(obs.HistTCPFrameSize).Count >= 1
	})
}
