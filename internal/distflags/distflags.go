// Package distflags wires the standard distributed-sweep flag block —
// -dist-workers, -dist-addr, -dist-exec, -dist-wait, -cache-url — into
// the study CLIs (cmd/figures, cmd/resilience, cmd/inference) and the
// daemon, so every sweep command grows the same distributed surface with
// one Register call and the flags mean the same thing everywhere.
//
// Each worker computes one cell at a time, so the fleet's width is its
// worker count: to use this machine's cores next to remote workers, add
// -dist-workers N beside -dist-addr.
package distflags

import (
	"flag"
	"os"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
)

// Flags holds the parsed distributed-sweep settings.
type Flags struct {
	workers  int
	addr     string
	exec     string
	wait     int
	waitFor  time.Duration
	cacheURL string
}

// Register installs the flag block on fs (typically flag.CommandLine,
// before flag.Parse).
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.workers, "dist-workers", 0, "spawn this many local worker processes (-dist-exec -worker), one cell at a time each; beside -dist-addr it puts this machine's cores into the fleet")
	fs.StringVar(&f.addr, "dist-addr", "", "listen on host:port for remote workers (one macrosim -connect host:port per remote core)")
	fs.StringVar(&f.exec, "dist-exec", "macrosim", "worker binary spawned for -dist-workers (resolved via PATH)")
	fs.IntVar(&f.wait, "dist-wait", 0, "wait for this many attached workers before sweeping (0 = start immediately)")
	fs.DurationVar(&f.waitFor, "dist-wait-timeout", time.Minute, "how long -dist-wait waits before giving up")
	fs.StringVar(&f.cacheURL, "cache-url", "", "macrochipd base URL for the shared cache tier, e.g. http://host:8080")
	return f
}

// Enabled reports whether any distributed execution was requested.
func (f *Flags) Enabled() bool { return f.workers > 0 || f.addr != "" }

// AttachRemote points the cache at the shared daemon tier when -cache-url
// is set (no-op otherwise, or with a disabled cache).
func (f *Flags) AttachRemote(c *expcache.Cache) {
	if c != nil && f.cacheURL != "" {
		c.SetRemote(expcache.NewHTTPRemote(f.cacheURL))
	}
}

// Coordinator builds and starts the coordinator the flags describe, or
// returns (nil, nil) when distribution was not requested — a nil
// *harness.Coordinator is the valid "compute everything locally" value for
// Runner.Dist. Spawned workers inherit the caller's cache flags, so every
// participant rendezvouses on the same store. The caller owns the returned
// coordinator and must Close it after the sweep.
func (f *Flags) Coordinator(seed int64, cacheDir string, noCache bool) (*harness.Coordinator, error) {
	if !f.Enabled() {
		return nil, nil
	}
	var args []string
	if noCache {
		args = append(args, "-no-cache")
	} else {
		args = append(args, "-cache-dir", cacheDir)
	}
	if f.cacheURL != "" {
		args = append(args, "-cache-url", f.cacheURL)
	}
	d, err := harness.NewCoordinator(harness.CoordinatorConfig{
		Workers: f.workers,
		Exec:    f.exec,
		Args:    args,
		Addr:    f.addr,
		Seed:    seed,
		Log:     os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	if f.wait > 0 {
		if err := d.AwaitWorkers(f.wait, f.waitFor); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}
