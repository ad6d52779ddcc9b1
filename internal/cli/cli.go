// Package cli is the bootstrap the three binaries share, so each main
// keeps only what is its own (dsr-query's stdin session, dsr-serve's
// serving options and drain, dsr-shard's snapshot boot):
//
//   - the process exit-code contract (README.md, "Exit codes");
//   - App: -log-level and -metrics-addr, the logger and the ops endpoint
//     they configure, and the listener whose address dsr-bench reads off
//     stderr;
//   - Coordinator: what dsr-query and dsr-serve add to join a fleet —
//     -shards, -connect-timeout, -slow-query, the /fleet view, and a
//     connect that maps a misassembled fleet to its own exit code.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/obs"
	"dsr/internal/obs/fleet"
	"dsr/internal/shard"
)

// The exit-code contract of all three binaries. Scripts branch on the
// raw integers, so TestExitCodeContract pins them and tests assert
// observed codes through WantExit.
const (
	ExitOK       = 0 // clean: every line parsed and every query answered, or a drained shutdown
	ExitFailure  = 1 // partial or runtime failure: malformed lines skipped, queries failed on unavailable partitions, connect/IO errors, an incomplete drain
	ExitUsage    = 2 // flag misuse: bad flag values, or graph-describing flags combined with -shards
	ExitMismatch = 3 // misassembled fleet: shards disagree about graph/partitioning (dsr.MismatchError)
)

var exitNames = [...]string{"ExitOK", "ExitFailure", "ExitUsage", "ExitMismatch"}

// WantExit is the one place tests assert an observed exit code —
// whether from a session function or from a real process — against the
// contract, so a failure names the contract and not a bare integer. t
// is a *testing.T; spelling out the two methods keeps package testing
// out of the binaries.
func WantExit(t interface {
	Helper()
	Errorf(format string, args ...any)
}, what string, got, want int) {
	t.Helper()
	if got != want {
		t.Errorf("%s: exit code = %d, want %d (%s)", what, got, want, exitNames[want])
	}
}

// App is the process-wide state every binary has: its name, logger,
// metrics registry and ops endpoint.
type App struct {
	Name string
	Log  *obs.Logger // nil until Start
	Reg  *obs.Registry

	logLevel, metricsAddr *string
	ops                   *obs.OpsServer
}

// New registers the flags all three binaries take on the default flag
// set. Register the binary's own flags next, flag.Parse, then Start.
func New(name string) *App {
	return &App{
		Name:        name,
		Reg:         obs.NewRegistry(),
		logLevel:    flag.String("log-level", "info", "log level floor: debug, info, warn, or error"),
		metricsAddr: flag.String("metrics-addr", "", "serve the metrics registry (JSON at /metrics) and net/http/pprof on this address; empty disables"),
	}
}

// Usagef reports flag misuse on stderr and exits ExitUsage. Every flag
// value is checked through it before any work begins.
func (a *App) Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, a.Name+": "+format+"\n", args...)
	os.Exit(ExitUsage)
}

// Start builds the logger from -log-level, tagged with the binary's
// name and the given fields.
func (a *App) Start(fields ...any) {
	level, err := obs.ParseLevel(*a.logLevel)
	if err != nil {
		a.Usagef("-log-level: %v", err)
	}
	a.Log = obs.StderrLogger(level).With("component", a.Name).With(fields...)
}

// Exit closes the ops endpoint and exits: os.Exit skips deferred calls,
// so mains leave through here.
func (a *App) Exit(code int) {
	a.ops.Close()
	os.Exit(code)
}

// Fatalf logs a runtime failure and exits ExitFailure.
func (a *App) Fatalf(format string, args ...any) {
	a.Log.Errorf(format, args...)
	a.Exit(ExitFailure)
}

// StartOps serves the registry and pprof on -metrics-addr and returns
// the bound address; empty when the flag is.
func (a *App) StartOps() string { return a.startOps("") }

func (a *App) startOps(views string, mounts ...obs.Mount) string {
	if *a.metricsAddr == "" {
		return ""
	}
	ops, err := obs.StartOps(*a.metricsAddr, a.Reg, mounts...)
	if err != nil {
		a.Fatalf("metrics-addr: %v", err)
	}
	a.ops = ops
	a.Log.Infof("metrics on http://%s/metrics (%spprof under /debug/pprof/)", ops.Addr(), views)
	return ops.Addr()
}

// Listen opens the binary's serving socket and announces the bound
// address — with ":0" the only place it can be learned.
func (a *App) Listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		a.Fatalf("listen: %v", err)
	}
	a.Log.Infof("serving on %s", ln.Addr())
	return ln
}

// Coordinator is an App that joins a shard fleet.
type Coordinator struct {
	*App
	Shards    *string
	SlowQuery *time.Duration

	connectTimeout *time.Duration
	eng            atomic.Pointer[dsr.Engine]
}

// NewCoordinator is New plus the fleet flags. -shards and
// -connect-timeout read differently where a fleet is optional
// (dsr-query) and where it is required (dsr-serve), so their usage
// strings are the caller's.
func NewCoordinator(name, shardsUsage, connectTimeoutUsage string) *Coordinator {
	return &Coordinator{
		App:            New(name),
		Shards:         flag.String("shards", "", shardsUsage),
		SlowQuery:      flag.Duration("slow-query", 0, "log a structured span trace for any batch slower than this; 0 disables"),
		connectTimeout: flag.Duration("connect-timeout", 30*time.Second, connectTimeoutUsage),
	}
}

// StartOps is App.StartOps plus the /fleet view. The ops endpoint must
// be up before the engine exists (connecting can take a while and
// operators want liveness meanwhile), so the aggregator reads the
// engine through a pointer Connect fills in; until then /fleet serves
// just the coordinator's own registry.
func (c *Coordinator) StartOps() {
	agg := fleet.New(c.Reg, func() []fleet.Target {
		e := c.eng.Load()
		if e == nil {
			return nil
		}
		eps := e.Endpoints()
		targets := make([]fleet.Target, len(eps))
		for i, ep := range eps {
			targets[i] = fleet.Target{Partition: ep.Partition, Replica: ep.Replica, Addr: ep.Addr, MetricsAddr: ep.MetricsAddr, Live: ep.Live}
		}
		return targets
	}, 0)
	c.startOps("fleet view at /fleet, ", obs.Mount{Pattern: "/fleet", Handler: agg.Handler()})
}

// Connect joins the -shards fleet within -connect-timeout and returns
// the graph-free engine over it. Failure is fatal: ExitMismatch when the
// shards disagree with each other about the deployment — a misassembled
// fleet, distinct from any transport failure — ExitFailure otherwise.
func (c *Coordinator) Connect(hedge shard.HedgeOptions) *dsr.Engine {
	ctx, cancel := context.WithTimeout(context.Background(), *c.connectTimeout)
	eng, err := dsr.Connect(ctx, dsr.ClusterSpec{
		Groups:    strings.Split(*c.Shards, ","),
		Log:       c.Log,
		Metrics:   c.Reg,
		SlowQuery: *c.SlowQuery,
		Hedge:     hedge,
	})
	cancel()
	if err != nil {
		c.Log.Errorf("connect shards: %v", err)
		c.Exit(connectExit(err))
	}
	c.eng.Store(eng) // /fleet now sees the shard endpoints
	c.Log.Infof("connected to %d shards, %d boundary vertices, %d coordinator-resident bytes",
		eng.NumPartitions(), eng.NumBoundary(), eng.ResidentBytes())
	return eng
}

func connectExit(err error) int {
	var me *dsr.MismatchError
	if errors.As(err, &me) {
		return ExitMismatch
	}
	return ExitFailure
}
