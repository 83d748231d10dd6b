package walknotwait

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/osn"
)

// Network is the hidden side of a simulated online social network: the full
// topology plus node attributes, accessible to samplers only through a
// metered Client.
type Network = osn.Network

// Client is a metered third-party view of a Network: neighbor queries are
// cached and counted, attributes are charged like profile fetches, and the
// §6.3.1 access restrictions are applied.
type Client = osn.Client

// NetworkOption configures a Network.
type NetworkOption = osn.Option

// CostMode selects how a Client charges queries.
type CostMode = osn.CostMode

const (
	// CostUniqueNodes charges one query per distinct node accessed (the
	// paper's cost measure; repeat lookups hit the crawler's cache).
	CostUniqueNodes = osn.CostUniqueNodes
)

// AttrDegree is the pseudo-attribute name for node degree.
const AttrDegree = osn.AttrDegree

// NewNetwork wraps a graph as a simulated online social network.
func NewNetwork(g *Graph, opts ...NetworkOption) *Network { return osn.NewNetwork(g, opts...) }

// Backend is the pluggable ground-truth access layer a Network serves
// topology from: in-memory (NewMemBackend), memory-mapped disk CSR
// (OpenDiskBackend), or a simulated remote API with per-round-trip latency
// (NewRemoteSim). All implementations answer batched neighbor requests, the
// substrate of the client's frontier prefetch.
type Backend = osn.Backend

// MemBackend serves a heap-resident CSR graph (the classic behavior).
type MemBackend = osn.MemBackend

// DiskBackend serves a memory-mapped binary CSR file: million-node graphs
// open in O(1) and sample without holding their edges on the heap.
type DiskBackend = osn.DiskBackend

// RemoteSim wraps a backend with simulated per-round-trip latency and
// jitter; batch requests are answered over concurrent simulated
// connections, so batched prefetch turns queries saved into wall-clock
// saved.
type RemoteSim = osn.RemoteSim

// NewMemBackend wraps an in-memory graph as a Backend.
func NewMemBackend(g *Graph) MemBackend { return osn.NewMemBackend(g) }

// NewMemBackendWithAttrs wraps an in-memory graph plus per-node attribute
// tables as a Backend — the heap-decoded counterpart of a disk backend over
// a CSR file with embedded attributes.
func NewMemBackendWithAttrs(g *Graph, attrs map[string][]float64) MemBackend {
	return osn.NewMemBackendWithAttrs(g, attrs)
}

// OpenDiskBackend opens a binary CSR file as a disk-backed Backend. Close
// the returned mapping when done with the network.
func OpenDiskBackend(path string) (DiskBackend, *MappedCSR, error) {
	return osn.OpenDiskBackend(path)
}

// NewRemoteSim wraps a backend with simulated access latency: every round
// trip sleeps latency ± jitter, and a k-node batch is answered over fanout
// concurrent connections (fanout <= 0 selects a default pool width).
func NewRemoteSim(inner Backend, latency, jitter time.Duration, fanout int) *RemoteSim {
	return osn.NewRemoteSim(inner, latency, jitter, fanout)
}

// NewNetworkOn wraps any access backend as a simulated online social
// network.
func NewNetworkOn(be Backend, opts ...NetworkOption) *Network { return osn.NewNetworkOn(be, opts...) }

// OpenBackend opens a graph file as an access backend by name — the shared
// selection logic of the wesample and weserve commands. kind is "mem" (CSR
// inputs are decoded to the heap, keeping embedded attribute tables so mem
// and disk present the same network for the same file), "disk" (memory-map
// a binary CSR in place), or "sim" (the mem/disk base wrapped with
// simulated per-round-trip latency ± jitter over a fanout-wide connection
// pool). Binary CSR files are auto-detected; plain files are read as edge
// lists. The returned cleanup releases any file mapping — call it once
// sampling is done.
func OpenBackend(path, kind string, latency, jitter time.Duration, fanout int) (Backend, func(), error) {
	noop := func() {}
	base := func() (Backend, func(), error) {
		if IsCSRFile(path) {
			be, m, err := OpenDiskBackend(path)
			if err != nil {
				return nil, nil, err
			}
			return be, func() { m.Close() }, nil
		}
		g, err := LoadEdgeList(path)
		if err != nil {
			return nil, nil, err
		}
		return NewMemBackend(g), noop, nil
	}
	switch kind {
	case "mem":
		if IsCSRFile(path) {
			g, attrs, err := LoadCSR(path)
			if err != nil {
				return nil, nil, err
			}
			return NewMemBackendWithAttrs(g, attrs), noop, nil
		}
		return base()
	case "disk":
		if !IsCSRFile(path) {
			return nil, nil, fmt.Errorf("-backend disk needs a binary CSR input (generate one with: wegen -format csr)")
		}
		return base()
	case "sim":
		inner, cleanup, err := base()
		if err != nil {
			return nil, nil, err
		}
		return NewRemoteSim(inner, latency, jitter, fanout), cleanup, nil
	}
	return nil, nil, fmt.Errorf("unknown backend %q (want mem, disk or sim)", kind)
}

// FaultSim wraps a backend with a deterministic, seeded fault schedule:
// transient errors, timeouts, rate-limit rejections with a retry-after hint,
// and full-outage windows — a pure function of (seed, attempt number), so a
// fixed seed reproduces the identical fault sequence.
type FaultSim = osn.FaultSim

// FaultConfig parameterizes a FaultSim.
type FaultConfig = osn.FaultConfig

// ResilientBackend is the retry/backoff/circuit-breaker middleware over a
// fallible backend: transient faults are absorbed below the metered Client
// (retries never perturb sampling RNG or query charges), and policy
// exhaustion surfaces as a typed BackendUnavailableError that cancels the
// owning job context.
type ResilientBackend = osn.ResilientBackend

// ResilientPolicy parameterizes a ResilientBackend; zero fields select
// defaults.
type ResilientPolicy = osn.ResilientPolicy

// BackendUnavailableError is the resilience layer's typed give-up error.
type BackendUnavailableError = osn.BackendUnavailableError

// NewFaultSim wraps inner with a deterministic fault schedule.
func NewFaultSim(inner Backend, cfg FaultConfig) (*FaultSim, error) {
	return osn.NewFaultSim(inner, cfg)
}

// NewResilientBackend wraps inner (typically a FaultSim or a live remote
// backend) with retry/backoff/circuit-breaker middleware.
func NewResilientBackend(inner Backend, pol ResilientPolicy) *ResilientBackend {
	return osn.NewResilientBackend(inner, pol)
}

// WithFailureCancel attaches a cancel-cause hook to ctx; a ResilientBackend
// below a Client bound to this context cancels it with the typed
// BackendUnavailableError when its retry policy gives up.
func WithFailureCancel(ctx context.Context, cancel context.CancelCauseFunc) context.Context {
	return osn.WithFailureCancel(ctx, cancel)
}

// FaultOptions is the CLI-friendly fault-injection surface shared by the
// wesample and weserve commands: a flat fault rate (split evenly between
// transient and timeout faults with a dash of rate limiting), a schedule
// seed, an optional "start+dur" outage window, and a retry cap.
type FaultOptions struct {
	// Rate is the total per-round-trip fault probability in [0, 1); 0
	// disables injection entirely (the backend is not wrapped).
	Rate float64
	// Seed drives the deterministic fault schedule (default 1).
	Seed int64
	// Outage, when non-empty, is a wall-clock outage window "start+dur"
	// (e.g. "2s+500ms") measured from backend construction.
	Outage string
	// Retries caps the resilience middleware's attempts per access
	// (0 selects the policy default).
	Retries int
}

// WrapFaults wraps be with a FaultSim and a ResilientBackend per opts. With
// a zero Rate and no Outage it returns be unchanged — the fault-free path
// stays bit-identical to an unwrapped backend. The returned FaultSim and
// ResilientBackend are non-nil only when wrapping happened.
func WrapFaults(be Backend, opts FaultOptions) (Backend, *FaultSim, *ResilientBackend, error) {
	if opts.Rate == 0 && opts.Outage == "" {
		return be, nil, nil, nil
	}
	if opts.Rate < 0 || opts.Rate >= 1 {
		return nil, nil, nil, fmt.Errorf("fault rate %v out of [0, 1)", opts.Rate)
	}
	cfg := FaultConfig{
		Seed: opts.Seed,
		// Split the flat rate: mostly transient, some timeouts, a sliver of
		// rate limiting — the mix a live platform presents.
		TransientRate: opts.Rate * 0.6,
		TimeoutRate:   opts.Rate * 0.3,
		RateLimitRate: opts.Rate * 0.1,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if opts.Outage != "" {
		start, dur, err := parseOutage(opts.Outage)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.OutageStart, cfg.OutageDur = start, dur
	}
	fs, err := NewFaultSim(be, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	res := NewResilientBackend(fs, ResilientPolicy{MaxRetries: opts.Retries})
	return res, fs, res, nil
}

// parseOutage parses a "start+dur" wall-clock outage window.
func parseOutage(s string) (start, dur time.Duration, err error) {
	a, b, ok := strings.Cut(s, "+")
	if !ok {
		return 0, 0, fmt.Errorf("outage %q: want start+dur (e.g. 2s+500ms)", s)
	}
	if start, err = time.ParseDuration(a); err != nil {
		return 0, 0, fmt.Errorf("outage start: %w", err)
	}
	if dur, err = time.ParseDuration(b); err != nil {
		return 0, 0, fmt.Errorf("outage duration: %w", err)
	}
	if start < 0 || dur <= 0 {
		return 0, 0, fmt.Errorf("outage %q: want start >= 0 and dur > 0", s)
	}
	return start, dur, nil
}

// NewClient creates a metered client over a network. rng may be a
// *rand.Rand or a NewFastRNG generator.
func NewClient(net *Network, mode CostMode, rng RNG) *Client {
	return osn.NewClient(net, mode, rng)
}

// WithRestriction installs a neighbor-list access restriction (§6.3.1).
func WithRestriction(r Restriction) NetworkOption { return osn.WithRestriction(r) }

// WithRateLimit simulates a query rate limit (e.g. 15 requests/15 min).
func WithRateLimit(perWindow int, window time.Duration) NetworkOption {
	return osn.WithRateLimit(perWindow, window)
}

// Restriction models the neighbor-list access restrictions of §6.3.1.
type Restriction = osn.Restriction

// RandomK is restriction type (1): a fresh random k-subset per invocation.
type RandomK = osn.RandomK

// FixedK is restriction type (2): a fixed random k-subset per node.
type FixedK = osn.FixedK

// TruncateL is restriction type (3): at most the first l neighbors.
type TruncateL = osn.TruncateL

// EstimateDegreeMarkRecapture estimates a node's true degree under a
// RandomK restriction with the Petersen mark-recapture estimator.
func EstimateDegreeMarkRecapture(c *Client, v, rounds int) (float64, error) {
	return osn.EstimateDegreeMarkRecapture(c, v, rounds)
}
