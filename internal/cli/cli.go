// Package cli holds the flag plumbing the evaluation commands share:
// the evaluation worker count, the persistent result store with its
// $MCUDIST_CACHE fallback and cache-stats line, and the pprof outputs.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mcudist/internal/evalpool"
	"mcudist/internal/resultstore"
)

// Session is one command run's shared flags: Register declares them,
// Start applies them after flag.Parse, and Close ends a successful
// run.
type Session struct {
	// Store is the persistent result store Start attached to the
	// default evaluation pool, or nil when the cache is off.
	Store *resultstore.Store

	workers    int
	cacheDir   string
	cacheStats bool
	cpuProfile string
	memProfile string
	cpuFile    *os.File
}

// Register declares -workers, -cache-dir, -cache-stats, -cpuprofile
// and -memprofile on the default command line.
func Register() *Session {
	s := &Session{}
	flag.IntVar(&s.workers, "workers", 0, "concurrent evaluations (0 = GOMAXPROCS)")
	flag.StringVar(&s.cacheDir, "cache-dir", "", "persistent result store directory: configurations simulated once are reloaded on every later run (default off; falls back to $MCUDIST_CACHE)")
	flag.BoolVar(&s.cacheStats, "cache-stats", false, "print memory-hit / disk-hit / exact-simulation counts and store size to stderr at exit")
	flag.StringVar(&s.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&s.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	return s
}

// Start rejects a negative -workers, begins the CPU profile, sizes the
// default evaluation pool, and attaches the result store named by
// -cache-dir, or by $MCUDIST_CACHE when the flag is empty (neither
// leaves the cache off).
func (s *Session) Start() error {
	if s.workers < 0 {
		return fmt.Errorf("-workers %d must be non-negative (0 = GOMAXPROCS)", s.workers)
	}
	if s.cpuProfile != "" {
		f, err := os.Create(s.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		s.cpuFile = f
	}
	evalpool.SetWorkers(s.workers)
	dir := s.cacheDir
	if dir == "" {
		dir = os.Getenv("MCUDIST_CACHE")
	}
	if dir == "" {
		return nil
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	evalpool.SetStore(store)
	s.Store = store
	return nil
}

// Close prints the cache-stats line when -cache-stats asked for it,
// then finalizes the profiles. The allocation profile is written
// after a final GC, so it reflects the whole run.
func (s *Session) Close() error {
	if s.cacheStats {
		printStats(s.Store)
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			return err
		}
	}
	if s.memProfile == "" {
		return nil
	}
	f, err := os.Create(s.memProfile)
	if err != nil {
		return err
	}
	runtime.GC() // settle live objects so the profile is end-of-run truth
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("alloc profile: %w", err)
	}
	return f.Close()
}

// printStats reports the cache-tier split on stderr (stdout carries
// the command's output, byte-identical cold or warm) in a
// grep-friendly key=value line: a fully warm store shows
// exact_sims=0.
func printStats(store *resultstore.Store) {
	st := evalpool.GetStats()
	fmt.Fprintf(os.Stderr, "cache-stats: memory_hits=%d disk_hits=%d exact_sims=%d",
		st.MemoryHits, st.DiskHits, st.Simulations)
	if store != nil {
		fmt.Fprintf(os.Stderr, " store_entries=%d store_bytes=%d store_dir=%s",
			store.Len(), store.SizeBytes(), store.Dir())
	} else {
		fmt.Fprint(os.Stderr, " store=off")
	}
	fmt.Fprintln(os.Stderr)
}
