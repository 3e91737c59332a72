// End-to-end observability over a real client/server split: a server
// System listening on loopback TCP (exactly what shored builds) and a
// shoreclient-connected client System in the same test process, each with
// its own obs.Set. The graceful-detach test is the lifecycle gate: after
// the client detaches, the server must hold no outstanding callback
// rounds and the purge notices the client sent must all have been applied
// — and the merged fleet snapshot must join the two processes' causal
// trees through the span contexts that rode the wire.
package shoreclient

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/export"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
)

const (
	testPages    = 64
	testObjsPage = 4
	testObjSize  = 128
)

// startServer builds the server side the way cmd/shored does: one
// server-role peer serving a volume over a loopback TCP listener.
func startServer(t *testing.T) (*core.System, string) {
	t.Helper()
	costs := sim.DefaultCosts(0)
	cfg := core.Config{
		Protocol:        core.PSAA,
		Costs:           costs,
		ObjectsPerPage:  testObjsPage,
		ObjectSize:      testObjSize,
		ServerPoolPages: testPages,
		ClientPoolPages: 8,
		NumPaths:        2,
		Seed:            1,
		UseTimeouts:     true,
		FixedTimeout:    5 * time.Second,
		RPCTimeout:      500 * time.Millisecond,
		Obs:             obs.Config{Enabled: true},
		Transport: transport.TCPFactory(transport.TCPOptions{
			ListenAddr:   "127.0.0.1:0",
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		}),
	}
	sys, err := core.NewSystemFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	vol := storage.NewVolume(1, costs, sys.Stats())
	if _, err := vol.CreateFile(1, 0, testPages, testObjsPage, testObjSize); err != nil {
		t.Fatal(err)
	}
	sys.Directory().AddExtent(1, 1, 0, testPages)
	if _, err := sys.AddPeer("srv", vol); err != nil {
		t.Fatal(err)
	}
	return sys, sys.Net().(*transport.TCP).Addr()
}

func connectClient(t *testing.T, addr string) *Client {
	t.Helper()
	cli, err := Connect(Options{
		Addr:           addr,
		Protocol:       core.PSAA,
		Volume:         1,
		DBPages:        testPages,
		ObjectsPerPage: testObjsPage,
		PageSize:       testObjsPage * testObjSize,
		NumPaths:       2,
		RPCTimeout:     500 * time.Millisecond,
		Obs:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

func waitUntil(t *testing.T, deadline time.Duration, what string, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(stop) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGracefulDetachObservability commits real work over the socket, then
// detaches and checks the fleet-visible end state: purge notices balance
// across the process boundary, no callback round is left outstanding, and
// the merged snapshot's causal trees span both processes.
func TestGracefulDetachObservability(t *testing.T) {
	srvSys, addr := startServer(t)
	cli := connectClient(t, addr)
	p, err := cli.AddPeer("c1")
	if err != nil {
		t.Fatal(err)
	}

	// Read one object on each of 4 pages and write one of them: 4 pages
	// cached at the client, so the detach must purge 4 copies.
	dir := cli.System().Directory()
	x := p.Begin()
	for pg := uint32(0); pg < 4; pg++ {
		obj, err := dir.LookupObject(pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Read(obj); err != nil {
			t.Fatalf("read page %d: %v", pg, err)
		}
	}
	obj, err := dir.LookupObject(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Write(obj, []byte("detach-e2e")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}

	p.Detach()

	cliStats, srvStats := cli.Stats(), srvSys.Stats()
	sent := cliStats.Get(sim.CtrPurgeSent)
	if sent < 4 {
		t.Fatalf("detach sent %d purge notices, want >= 4", sent)
	}
	// A purge flush is a request: Detach returned once the server had
	// applied every notice the client sent.
	if applied := srvStats.Get(sim.CtrPurgeApplied); applied != sent {
		t.Errorf("purge balance broken: client sent %d, server applied %d", sent, applied)
	}

	// No callback round may remain outstanding anywhere after the detach.
	for _, sys := range []*core.System{srvSys, cli.System()} {
		for _, g := range sys.Obs().GaugeValues() {
			if g.Name == "callback_rounds_outstanding" && g.Value != 0 {
				t.Errorf("gauge %s%v = %d after detach, want 0", g.Name, g.Labels, g.Value)
			}
		}
	}

	// The merged fleet snapshot must balance the purge counters across the
	// process split and join the commit's causal tree across both sides.
	m := export.Merge([]*export.Snapshot{
		export.Capture(srvSys.Obs(), "shored:srv", nil),
		export.Capture(cli.System().Obs(), "shorecli:c", nil),
	})
	if got := m.PerProcess["shorecli:c"][sim.CtrPurgeSent]; got != sent {
		t.Errorf("merged client purge_notices_sent = %d, want %d", got, sent)
	}
	if got := m.PerProcess["shored:srv"][sim.CtrPurgeApplied]; got != sent {
		t.Errorf("merged server purge_notices_applied = %d, want %d", got, sent)
	}
	if flows := m.CrossProcessFlows(); flows < 1 {
		t.Errorf("merged snapshot has %d cross-process span joins, want >= 1", flows)
	}
	if m.Counters[sim.CtrCommits] < 1 {
		t.Error("merged counters lost the commit")
	}
}

// TestDetachIsIdempotent guards the shutdown path shorecli drives: Close
// detaches every peer after the test has already detached explicitly; the
// second detach must be a no-op, not a second volley of purge notices.
func TestDetachIsIdempotent(t *testing.T) {
	srvSys, addr := startServer(t)
	cli := connectClient(t, addr)
	p, err := cli.AddPeer("c1")
	if err != nil {
		t.Fatal(err)
	}
	dir := cli.System().Directory()
	x := p.Begin()
	obj, err := dir.LookupObject(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Read(obj); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}

	p.Detach()
	sent := cli.Stats().Get(sim.CtrPurgeSent)
	if sent < 1 {
		t.Fatalf("detach sent %d purge notices, want >= 1", sent)
	}
	waitUntil(t, 5*time.Second, "purges applied", func() bool {
		return srvSys.Stats().Get(sim.CtrPurgeApplied) >= sent
	})
	p.Detach()
	if again := cli.Stats().Get(sim.CtrPurgeSent); again != sent {
		t.Errorf("second detach sent %d more purge notices", again-sent)
	}
}

// TestSnapshotOverSplitSystems is the wire-format check on real systems
// (not fixtures): a snapshot captured from each side round-trips through
// the JSON encoding and still merges into a view that sees both epochs.
func TestSnapshotOverSplitSystems(t *testing.T) {
	srvSys, addr := startServer(t)
	cli := connectClient(t, addr)
	p, err := cli.AddPeer("c1")
	if err != nil {
		t.Fatal(err)
	}
	dir := cli.System().Directory()
	x := p.Begin()
	obj, err := dir.LookupObject(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Read(obj); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}

	var snaps []*export.Snapshot
	for i, sys := range []*core.System{srvSys, cli.System()} {
		var buf bytes.Buffer
		if err := export.Write(&buf, export.Capture(sys.Obs(), fmt.Sprintf("proc%d", i), nil)); err != nil {
			t.Fatal(err)
		}
		s, err := export.Read(&buf)
		if err != nil {
			t.Fatalf("snapshot %d did not round-trip: %v", i, err)
		}
		snaps = append(snaps, s)
	}
	m := export.Merge(snaps)
	if len(m.Processes) != 2 {
		t.Fatalf("merged %d processes, want 2", len(m.Processes))
	}
	if len(m.Events) == 0 {
		t.Fatal("merged view has no trace events")
	}
	if m.Hists[obs.HistRPC].Count == 0 {
		t.Error("merged RPC histogram is empty; client-side RPC spans missing")
	}
}
