// Sim-vs-TCP parity: the TCP fabric must be a pure transport swap. The
// protocol layer cannot tell the fabrics apart, so the reference script
// must make bit-identical protocol decisions on both — same commits, same
// aborts, same objects touched, same pages shipped. Message counts are
// also compared: with no faults injected and no socket loss, TCP carries
// exactly the messages the simulated fabric carries.
package core

import (
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/sim"
	"adaptivecc/internal/transport"
)

// tcpCfg swaps the cluster onto the real TCP fabric (loopback, single
// process) with test-speed reconnect backoff.
func tcpCfg(c *Config) {
	c.Transport = transport.TCPFactory(transport.TCPOptions{
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
}

// TestTCPSemanticParity is the acceptance gate for the transport swap: the
// reference script over real sockets must reproduce the simulated run's
// semantic counter fingerprint exactly (semanticParityCounters). The
// fault-free script loses no frames, so the full message and page-transfer
// counts must match too, not just the protocol decisions.
func TestTCPSemanticParity(t *testing.T) {
	for _, proto := range []Protocol{PSOA, PSAA} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			base := runParityScript(t, proto)
			tcp := runParityScript(t, proto, tcpCfg)
			for _, c := range semanticParityCounters {
				if tcp[c] != base[c] {
					t.Errorf("counter %s = %d over TCP, %d simulated", c, tcp[c], base[c])
				}
			}
			if tcp[sim.CtrMessages] != base[sim.CtrMessages] {
				t.Errorf("message count = %d over TCP, %d simulated (fault-free runs must match exactly)",
					tcp[sim.CtrMessages], base[sim.CtrMessages])
			}
		})
	}
}

// TestTCPReconnectMidCallbackRound severs every socket touching a client
// while a callback round is blocked on that client's SH lock. The round's
// request or ack may be lost in flight; the resilient-RPC retry/dedup plus
// the keepers' redial must complete the round after the blip — the writer
// commits, and the called-back copy is gone.
func TestTCPReconnectMidCallbackRound(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newCluster(t, PSAA, 2, 8, resilientCfg, tcpCfg)
		a, b := tc.clients[0], tc.clients[1]
		stats := tc.sys.Stats()

		// b caches the page, then holds an SH lock on the object in an
		// active transaction: a's write callback must block at b.
		warm := b.Begin()
		readVal(t, warm, objID(1, 0))
		mustCommit(t, warm)
		tb := b.Begin()
		readVal(t, tb, objID(1, 0))

		var wg sync.WaitGroup
		wg.Add(1)
		var aErr error
		go func() {
			defer wg.Done()
			ta := a.Begin()
			if err := ta.Write(objID(1, 0), []byte("post-blip")); err != nil {
				_ = ta.Abort()
				aErr = err
				return
			}
			aErr = ta.Commit()
		}()

		// Wait until the round is genuinely in flight and blocked at b.
		waitForCounter(t, stats, sim.CtrCallbackBlocked, 1, 10*time.Second)

		// The blip: every socket touching b dies mid-round.
		tcp := tc.sys.Net().(*transport.TCP)
		if n := tcp.DropConnections(b.Name()); n == 0 {
			t.Error("DropConnections severed nothing mid-round")
		}
		waitForCounter(t, stats, sim.CtrTCPReconnects, 1, 10*time.Second)

		// b finishes; the callback round must now complete over the
		// redialed sockets and a's commit must land.
		mustCommit(t, tb)
		wg.Wait()
		if aErr != nil {
			t.Fatalf("writer did not survive the socket blip: %v", aErr)
		}
		if got := stats.Get(sim.CtrCallbacks); got < 1 {
			t.Errorf("callbacks issued = %d, want >= 1", got)
		}

		// The round really invalidated b: a fresh read sees a's value.
		check := b.Begin()
		if got := readVal(t, check, objID(1, 0)); got != "post-blip" {
			t.Errorf("b reads %q after completed round, want post-blip", got)
		}
		mustCommit(t, check)

		// Every redialled socket started a fresh codec stream on both ends:
		// its first message carried its own type descriptors (the round
		// above completed over such sockets), and no decoder was shown a
		// frame of a severed stream — either failure kills a socket with
		// ErrBadStream and is counted here.
		if got := tcp.StreamErrors(); got != 0 {
			t.Errorf("stream errors = %d, want 0 (codec state must die with its socket)", got)
		}
	})
}
