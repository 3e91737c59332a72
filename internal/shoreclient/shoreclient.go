// Package shoreclient connects a client-role peer to a remote shored page
// server over the TCP fabric. It builds a local core.System that contains
// only the client peers; the server's volumes are declared as remotely
// owned, so every page request, lock, prepare, and finish travels over real
// sockets to the server process, and callbacks ride the reverse direction
// of the same connections.
//
// The database geometry options (volume, pages, objects per page, page
// size) must match the server's — the page directory is configuration, not
// something the protocol negotiates.
package shoreclient

import (
	"fmt"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
)

// Endpoint names one shard of a sharded fleet: a shored process serving
// one volume holding a contiguous slice of the global page space.
type Endpoint struct {
	Name   string           // shard peer name (shored -name / -shard default "srv<i>")
	Addr   string           // shard listen address
	Volume storage.VolumeID // shard volume ID (shored -shard i/N serves volume i)
	Pages  uint32           // pages on this shard
}

// Options configures a connection to a shored server or fleet. The zero
// value of every field except Addr (or Fleet) is usable.
type Options struct {
	// Addr is the server's listen address (required unless Fleet is set).
	Addr string
	// ServerName is the server's peer name (default "srv"; must match the
	// -name the server was started with).
	ServerName string
	// Fleet connects to a sharded deployment instead of a single server:
	// one Endpoint per shard, in global page order (shard i's pages follow
	// shard i-1's). When set, Addr/ServerName/Volume/DBPages are ignored
	// and the geometry is the sum of the endpoints'.
	Fleet []Endpoint
	// Protocol selects the consistency protocol (default PS-AA; must match
	// the server).
	Protocol core.Protocol

	// Database geometry — must match the server's flags.
	Volume         storage.VolumeID // default 1
	DBPages        uint32           // default 1200
	ObjectsPerPage int              // default 20
	PageSize       int              // default 4096

	// CommitHold pauses every cross-shard commit between its prepare and
	// decide phases (a fault-injection hold for crash drills: a client
	// killed inside the hold leaves provably in-doubt prepared
	// transactions at the shards). Zero — the default — means no hold.
	CommitHold time.Duration

	// ClientPoolPages sizes each client peer's cache (default DBPages/4).
	ClientPoolPages int
	// NumPaths is the independent FIFO path count per peer pair (default 3;
	// must match the server).
	NumPaths int
	// Seed drives path selection and workload determinism (default 1).
	Seed int64
	// RPCTimeout bounds each request attempt; retry/dedup recovers frames
	// lost to socket teardown. Zero takes core's default (500ms).
	RPCTimeout time.Duration
	// Obs enables the observability subsystem on the client-side system:
	// latency histograms, trace rings, and the TCP fabric's per-path
	// telemetry, all reachable through System().Obs() for snapshot export.
	Obs bool
}

func (o Options) withDefaults() Options {
	if o.ServerName == "" {
		o.ServerName = "srv"
	}
	if o.Volume == 0 {
		o.Volume = 1
	}
	if o.DBPages == 0 {
		o.DBPages = 1200
	}
	if o.ObjectsPerPage == 0 {
		o.ObjectsPerPage = 20
	}
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.ClientPoolPages == 0 {
		o.ClientPoolPages = int(o.DBPages / 4)
	}
	if o.NumPaths == 0 {
		o.NumPaths = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Client is a local System whose only volume owner is the remote server.
type Client struct {
	opts  Options
	sys   *core.System
	peers []*core.Peer
}

// Connect builds the client-side system and declares the remote server
// (or each shard of Fleet) as the owner of its volume. No socket is
// opened until the first peer sends a message; add peers with AddPeer
// before running work.
func Connect(opts Options) (*Client, error) {
	if opts.Addr == "" && len(opts.Fleet) == 0 {
		return nil, fmt.Errorf("shoreclient: Addr or Fleet is required")
	}
	for i, ep := range opts.Fleet {
		if ep.Name == "" || ep.Addr == "" || ep.Volume == 0 || ep.Pages == 0 {
			return nil, fmt.Errorf("shoreclient: Fleet[%d] needs Name, Addr, Volume, and Pages", i)
		}
	}
	opts = opts.withDefaults()
	remotes := map[string]string{opts.ServerName: opts.Addr}
	if len(opts.Fleet) > 0 {
		remotes = make(map[string]string, len(opts.Fleet))
		for _, ep := range opts.Fleet {
			if _, dup := remotes[ep.Name]; dup {
				return nil, fmt.Errorf("shoreclient: duplicate fleet shard name %q", ep.Name)
			}
			remotes[ep.Name] = ep.Addr
		}
	}
	cfg := core.Config{
		Protocol:        opts.Protocol,
		Costs:           sim.DefaultCosts(0), // real wire: no simulated latency on top
		ObjectsPerPage:  opts.ObjectsPerPage,
		ObjectSize:      opts.PageSize / opts.ObjectsPerPage,
		ClientPoolPages: opts.ClientPoolPages,
		ServerPoolPages: 64, // client-role only; no volume is served locally
		NumPaths:        opts.NumPaths,
		Seed:            opts.Seed,
		UseTimeouts:     true,
		FixedTimeout:    5 * time.Second,
		RPCTimeout:      opts.RPCTimeout,
		Obs:             obs.Config{Enabled: opts.Obs},
		Transport: transport.TCPFactory(transport.TCPOptions{
			Remotes: remotes,
		}),
	}
	if opts.CommitHold > 0 {
		hold := opts.CommitHold
		cfg.TwoPCGate = func(string, lock.TxID) { time.Sleep(hold) }
	}
	sys, err := core.NewSystemFabric(cfg)
	if err != nil {
		return nil, fmt.Errorf("shoreclient: %w", err)
	}
	if len(opts.Fleet) > 0 {
		for _, ep := range opts.Fleet {
			sys.Directory().AddExtent(ep.Volume, 1, 0, ep.Pages)
			if err := sys.AddRemoteOwner(ep.Name, ep.Volume); err != nil {
				sys.Close()
				return nil, fmt.Errorf("shoreclient: shard %s: %w", ep.Name, err)
			}
		}
	} else {
		sys.Directory().AddExtent(opts.Volume, 1, 0, opts.DBPages)
		if err := sys.AddRemoteOwner(opts.ServerName, opts.Volume); err != nil {
			sys.Close()
			return nil, fmt.Errorf("shoreclient: %w", err)
		}
	}
	return &Client{opts: opts, sys: sys}, nil
}

// AddPeer registers one client-role peer. Names must be unique across
// every client process connected to the same server.
func (c *Client) AddPeer(name string) (*core.Peer, error) {
	p, err := c.sys.AddPeer(name)
	if err != nil {
		return nil, err
	}
	c.peers = append(c.peers, p)
	return p, nil
}

// System exposes the underlying system (directory lookups, Net, Obs).
func (c *Client) System() *core.System { return c.sys }

// Stats exposes the client-side counter sink.
func (c *Client) Stats() *sim.Stats { return c.sys.Stats() }

// Close detaches every peer — purging their cached copies back to the
// server so no future callback targets this departed process — and then
// drains and shuts down the fabric. Call only after all transactions have
// finished.
func (c *Client) Close() {
	for _, p := range c.peers {
		p.Detach()
	}
	c.sys.Close()
}
