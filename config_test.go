package lmp_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

var update = flag.Bool("update", false, "rewrite testdata/config.golden")

// TestConfigKnobs is the ledger of the pool's knobs: one line per
// exported settable leaf of lmp.Config, its dotted path and its type, in
// testdata/config.golden. A knob added, removed or retyped shows up as a
// diff of that file; rewrite it with `go test -run TestConfigKnobs
// -update .` and review the diff.
func TestConfigKnobs(t *testing.T) {
	var b strings.Builder
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", prefix, f.Name, f.Type)
		}
	}
	walk("", reflect.TypeOf(lmp.Config{}))
	const golden = "testdata/config.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("lmp.Config's knobs differ from %s (rerun with -update and review the diff):\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestNewRefusesNegativeCacheCapacity: a negative cache capacity is an
// error from New. Accepted, it built caches whose first miss panicked
// with an index out of range while evicting, under the slice's stripe
// lock.
func TestNewRefusesNegativeCacheCapacity(t *testing.T) {
	cfg := lmp.Config{
		Servers: []lmp.ServerConfig{
			{Capacity: lmp.SliceSize, SharedBytes: lmp.SliceSize},
			{Capacity: lmp.SliceSize, SharedBytes: lmp.SliceSize},
		},
		Cache: lmp.CacheConfig{Enabled: true, CapacityBytes: -4096},
	}
	pool, err := lmp.New(cfg)
	if err == nil {
		// What an accepted pool did with it: a remote read misses.
		if b, err := pool.Alloc(4096, 0); err == nil {
			_ = pool.Read(1, b.Addr(), make([]byte, 64))
		}
		t.Fatal("New accepted a negative cache capacity")
	}
}
