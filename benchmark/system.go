package main

import (
	"fmt"
	"strconv"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/shoreclient"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// deployment is one running instance of the system under test with its
// applications attached: shored children plus one shoreclient connection
// per application, or a single in-process core.System on the sim fabric.
type deployment struct {
	servers []*shored
	clients []*shoreclient.Client // one per application; empty on the sim fabric
	sys     *core.System          // the in-process system; nil over TCP
	peers   []*core.Peer          // peers[i] runs application i
	dirs    []*storage.Directory  // dirs[i] resolves pages for application i
}

// deploy brings the system up for workload w. env carries the shored
// binary and the scratch directory; live selects servers that export
// their counters while running (traced runs).
func deploy(env *benchEnv, w workloadSpec, seed int64, live bool) (*deployment, error) {
	d := &deployment{}
	var err error
	switch w.shape {
	case simFabric:
		err = d.deploySim(w, seed)
	case oneServer:
		err = d.deployTCP(env, w, seed, live, 1)
	case twoShards:
		err = d.deployTCP(env, w, seed, live, 2)
	}
	if err != nil {
		d.abandon()
		return nil, err
	}
	return d, nil
}

func (d *deployment) deployTCP(env *benchEnv, w workloadSpec, seed int64, live bool, shards int) error {
	opts := shoreclient.Options{
		DBPages:         dbPages,
		ObjectsPerPage:  objectsPerPage,
		PageSize:        pageSize,
		ClientPoolPages: w.poolPages,
		NumPaths:        numPaths,
		Seed:            seed,
		RPCTimeout:      rpcTimeout,
	}
	if shards == 1 {
		s, err := startShored(env, "srv", seed, live)
		if err != nil {
			return err
		}
		d.servers = append(d.servers, s)
		opts.Addr = s.addr
	} else {
		// The last shard starts first so each earlier one can be told the
		// addresses of those after it (-peers): an in-doubt resolver may
		// have to ask a coordinator on another shard. scripts/e2e.sh
		// starts its fleet the same way.
		fleet := make([]shoreclient.Endpoint, shards)
		peers := ""
		for i := shards; i >= 1; i-- {
			name := "srv" + strconv.Itoa(i)
			extra := []string{"-shard", fmt.Sprintf("%d/%d", i, shards)}
			if peers != "" {
				extra = append(extra, "-peers", peers)
			}
			s, err := startShored(env, name, seed, live, extra...)
			if err != nil {
				return err
			}
			d.servers = append(d.servers, s)
			fleet[i-1] = shoreclient.Endpoint{Name: name, Addr: s.addr, Volume: storage.VolumeID(i), Pages: dbPages / uint32(shards)}
			if peers != "" {
				peers += ","
			}
			peers += name + "=" + s.addr
		}
		opts.Fleet = fleet
	}
	// One connection and one peer per application: one workstation each,
	// as in the paper, which also makes every client counter attributable
	// to one application.
	for app := 0; app < numApps; app++ {
		cli, err := shoreclient.Connect(opts)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, cli)
		p, err := cli.AddPeer("a" + strconv.Itoa(app+1))
		if err != nil {
			return err
		}
		d.peers = append(d.peers, p)
		d.dirs = append(d.dirs, cli.System().Directory())
	}
	return nil
}

// deploySim builds the engine shored and shoreclient build, minus the
// sockets: same protocol, geometry, pools, timeouts and RPC discipline.
func (d *deployment) deploySim(w workloadSpec, seed int64) error {
	costs := sim.DefaultCosts(0)
	d.sys = core.NewSystem(core.Config{
		Costs:           costs,
		ObjectsPerPage:  objectsPerPage,
		ObjectSize:      pageSize / objectsPerPage,
		ClientPoolPages: w.poolPages,
		ServerPoolPages: serverPoolPages,
		NumPaths:        numPaths,
		Seed:            seed,
		UseTimeouts:     true,
		FixedTimeout:    5 * time.Second,
		RPCTimeout:      rpcTimeout,
	})
	vol := storage.NewVolume(1, costs, d.sys.Stats())
	if _, err := vol.CreateFile(1, 0, dbPages, objectsPerPage, pageSize/objectsPerPage); err != nil {
		return err
	}
	d.sys.Directory().AddExtent(1, 1, 0, dbPages)
	if _, err := d.sys.AddPeer("srv", vol); err != nil {
		return err
	}
	for app := 0; app < numApps; app++ {
		p, err := d.sys.AddPeer("a" + strconv.Itoa(app+1))
		if err != nil {
			return err
		}
		d.peers = append(d.peers, p)
		d.dirs = append(d.dirs, d.sys.Directory())
	}
	return nil
}

// clientCounters sums the counters of the benchmark's own process: every
// application's shoreclient system, or the whole in-process system.
func (d *deployment) clientCounters() map[string]int64 {
	if d.sys != nil {
		return d.sys.Stats().Snapshot()
	}
	sum := make(map[string]int64)
	for _, c := range d.clients {
		for k, v := range c.Stats().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

// serverCounters sums the live counters of every shored (traced runs only).
func (d *deployment) serverCounters() (map[string]int64, error) {
	sum := make(map[string]int64)
	for _, s := range d.servers {
		c, err := s.liveCounters()
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			sum[k] += v
		}
	}
	return sum, nil
}

// serverCPU sums the CPU every shored has used so far.
func (d *deployment) serverCPU() (time.Duration, error) {
	var sum time.Duration
	for _, s := range d.servers {
		c, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", s.name, err)
		}
		sum += c
	}
	return sum, nil
}

// shutdown detaches the applications and stops the servers gracefully. It
// returns the servers' summed peak resident size and every problem met on
// the way: an asynchronous peer error, an ungraceful exit, in-doubt 2PC
// residue.
func (d *deployment) shutdown() (int64, []error) {
	var errs []error
	for _, p := range d.peers {
		if err := p.LastError(); err != nil {
			errs = append(errs, fmt.Errorf("peer %s saw an asynchronous error: %w", p.Name(), err))
		}
	}
	for _, c := range d.clients {
		c.Close()
	}
	if d.sys != nil {
		d.sys.Close()
	}
	var rss int64
	for _, s := range d.servers {
		peak, err := s.stop()
		if err != nil {
			errs = append(errs, err)
		}
		rss += peak
	}
	return rss, errs
}

// abandon tears down a deployment that failed half-way up.
func (d *deployment) abandon() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.sys != nil {
		d.sys.Close()
	}
	for _, s := range d.servers {
		s.kill()
	}
}
