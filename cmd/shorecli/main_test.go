package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/core"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/workload"
)

// TestRunRejectsNonPositiveRPCTimeout: the client side of the RPC
// discipline derives its retry schedule from -rpc-timeout, so zero and
// negative values are usage errors, not "wait forever".
func TestRunRejectsNonPositiveRPCTimeout(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		err := run([]string{"-addr", "127.0.0.1:1", "-rpc-timeout", v})
		if err == nil || !strings.Contains(err.Error(), "-rpc-timeout") {
			t.Errorf("run(-rpc-timeout %s) = %v, want an error naming -rpc-timeout", v, err)
		}
	}
}

// TestRunAppStopsOnUnplacedPage: the directory maps the workload's pages
// onto a volume no peer claims, so every access answers ErrUnplaced. No
// retry can cure that: runApp must give up at once and name the cause,
// not back off a thousand times and report only an attempt count.
func TestRunAppStopsOnUnplacedPage(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Protocol:       consistency.PSAA,
		Costs:          sim.DefaultCosts(0),
		ObjectsPerPage: 20,
		ObjectSize:     16,
		UseTimeouts:    true,
		FixedTimeout:   5 * time.Second,
	})
	defer sys.Close()
	sys.Directory().AddExtent(7, 1, 0, 100) // volume 7 has no owner
	p, err := sys.AddPeer("c1")
	if err != nil {
		t.Fatal(err)
	}
	params, err := workload.Spec(workload.Uniform, 0, 1, 100, false, 0.2, 20)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(params, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = runApp(sys, p, gen, 1, 1)
	if !errors.Is(err, placement.ErrUnplaced) {
		t.Fatalf("runApp = %v, want an error wrapping placement.ErrUnplaced", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("runApp took %v to report an error no retry can cure", d)
	}
}
