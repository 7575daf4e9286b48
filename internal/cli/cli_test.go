package cli

import (
	"testing"

	"mcudist/internal/evalpool"
)

// start applies the shared flags with only -cache-dir given (empty
// means unset) and detaches the store from the process-global pool
// when the test ends.
func start(t *testing.T, cacheDir string) *Session {
	t.Helper()
	s := &Session{cacheDir: cacheDir}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		evalpool.SetStore(nil)
		if s.Store != nil {
			s.Store.Close()
		}
	})
	return s
}

func TestStartAttachesStoreFromEnvironment(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("MCUDIST_CACHE", dir)
	s := start(t, "")
	if s.Store == nil || s.Store.Dir() != dir {
		t.Fatalf("store = %v, want one in %s", s.Store, dir)
	}
	if evalpool.Default().Store() != s.Store {
		t.Fatal("store not attached to the default pool")
	}
}

func TestStartFlagOverridesEnvironment(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("MCUDIST_CACHE", t.TempDir())
	s := start(t, dir)
	if s.Store == nil || s.Store.Dir() != dir {
		t.Fatalf("store = %v, want one in %s", s.Store, dir)
	}
}

func TestStartWithoutCacheLeavesPoolDetached(t *testing.T) {
	t.Setenv("MCUDIST_CACHE", "")
	s := start(t, "")
	if s.Store != nil || evalpool.Default().Store() != nil {
		t.Fatal("a store was attached with neither -cache-dir nor $MCUDIST_CACHE set")
	}
}
