package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openRegistryJSON writes body as registry.json in a fresh directory and
// opens the registry there.
func openRegistryJSON(t *testing.T, body []byte) (*registry, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	return openRegistry(dir)
}

// TestOpenRegistryRejectsInvalid: a registry.json that publish and
// activate could not have written is refused on load, with an error that
// names the model, instead of panicking or misbehaving later.
func TestOpenRegistryRejectsInvalid(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"null entry", `{"models":{"m":null}}`, `model "m": null entry`},
		{"bad key", `{"models":{"../x":{"id":"../x"}}}`, `model "../x"`},
		{"numeric key", `{"models":{"42":{"id":"42"}}}`, `model "42"`},
		{"key differs from id", `{"models":{"m":{"id":"n"}}}`, `model "m": entry has id "n"`},
		{"zero version", `{"models":{"m":{"id":"m","versions":[{"version":0}]}}}`, `model "m": version 0 is not positive`},
		{"negative version", `{"models":{"m":{"id":"m","versions":[{"version":-3}]}}}`, `model "m": version -3 is not positive`},
		{"duplicate version", `{"models":{"m":{"id":"m","versions":[{"version":1},{"version":1}]}}}`, `model "m": version 1 after version 1`},
		{"out of order", `{"models":{"m":{"id":"m","versions":[{"version":2},{"version":1}]}}}`, `model "m": version 1 after version 2`},
		{"active not listed", `{"models":{"m":{"id":"m","active":3,"versions":[{"version":1}]}}}`, `model "m": active version 3`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := openRegistryJSON(t, []byte(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open: %v, want an error containing %q", err, tc.want)
			}
		})
	}
	r, err := openRegistryJSON(t, []byte(`{"models":{"m":{"id":"m","active":2,"versions":[{"version":1},{"version":2}]},"n":{"id":"n"}}}`))
	if err != nil {
		t.Fatalf("valid registry refused: %v", err)
	}
	if got := len(r.list()); got != 2 {
		t.Fatalf("list: %d models, want 2", got)
	}
}

// FuzzOpenRegistry: any registry.json either fails to load or yields a
// registry whose list, get, resolve and checksum never panic. Its seed
// corpus is under testdata/fuzz/FuzzOpenRegistry.
func FuzzOpenRegistry(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := openRegistryJSON(t, body)
		if err != nil {
			return
		}
		for _, m := range r.list() {
			if _, ok := r.get(m.ID); !ok {
				t.Fatalf("listed model %q not found", m.ID)
			}
			r.resolve(m.ID, 0)
			for _, ver := range m.Versions {
				if v, _, _ := r.resolve(m.ID, ver.Version); v != ver.Version {
					t.Fatalf("model %q: pinned version %d resolved to %d", m.ID, ver.Version, v)
				}
				if _, ok := r.checksum(m.ID, ver.Version); !ok {
					t.Fatalf("model %q: no checksum for listed version %d", m.ID, ver.Version)
				}
			}
		}
		r.get("absent")
		r.resolve("absent", 1)
		r.checksum("absent", 1)
	})
}
