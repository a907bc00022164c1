package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atomicfile"
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

// TestPublishDiskFaults: a publish whose artifact or registry.json write
// fails — short, out of space, or at the rename — answers an error and
// never shows: registry.json keeps its previous bytes and still loads,
// GET /v1/models lists only the earlier version, no temporary file stays
// behind, and a daemon restarted on the directory lists the same. Once the
// fault clears, the next publish takes the next version.
func TestPublishDiskFaults(t *testing.T) {
	dir := t.TempDir()
	regDir := filepath.Join(dir, "registry")
	s, err := New(Config{Dir: dir, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	client := ts.Client()
	job := trainDone(t, client, ts.URL, 150, 31)
	if code, _, body := rawPost(t, client, ts.URL+"/v1/models", PublishRequest{ID: "prod", JobID: job}); code != http.StatusCreated {
		t.Fatalf("publish v1: status %d (%s)", code, body)
	}
	before, err := os.ReadFile(filepath.Join(regDir, "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	listed := func(base string) []ModelInfo {
		t.Helper()
		var list struct {
			Models []ModelInfo `json:"models"`
		}
		if code := getJSON(t, client, base+"/v1/models", &list); code != http.StatusOK {
			t.Fatalf("list models: %d", code)
		}
		return list.Models
	}
	want := listed(ts.URL)
	same := func(what string, got []ModelInfo) {
		t.Helper()
		if len(got) != 1 || got[0].ID != "prod" || got[0].Active != 1 || len(got[0].Versions) != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: models %+v, want %+v", what, got, want)
		}
	}
	for _, file := range []string{".ckpt", "registry.json"} {
		for _, fault := range []atomicfile.Fault{atomicfile.ShortWrite, atomicfile.NoSpace, atomicfile.RenameFails} {
			what := fmt.Sprintf("%s fault %d", file, fault)
			disarm := atomicfile.Inject(file, 0, fault)
			for _, id := range []string{"prod", "other"} {
				if code, _, body := rawPost(t, client, ts.URL+"/v1/models", PublishRequest{ID: id, JobID: job}); code != http.StatusInternalServerError {
					t.Fatalf("%s: publish %s answered %d (%s), want 500", what, id, code, body)
				}
			}
			disarm()
			got, err := os.ReadFile(filepath.Join(regDir, "registry.json"))
			if err != nil || !bytes.Equal(got, before) {
				t.Fatalf("%s: registry.json changed (%v):\n%s\nwas\n%s", what, err, got, before)
			}
			if _, err := openRegistry(regDir); err != nil {
				t.Fatalf("%s: registry.json no longer loads: %v", what, err)
			}
			same(what, listed(ts.URL))
			filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err == nil && strings.HasSuffix(path, ".tmp") {
					t.Fatalf("%s: %s left behind", what, path)
				}
				return err
			})
		}
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	client = ts2.Client()
	same("restarted daemon", listed(ts2.URL))
	var pub PublishResponse
	code, _, body := rawPost(t, client, ts2.URL+"/v1/models", PublishRequest{ID: "prod", JobID: job})
	if code != http.StatusCreated || json.Unmarshal(body, &pub) != nil || pub.Version.Version != 2 {
		t.Fatalf("publish after the faults: status %d (%s), want version 2", code, body)
	}
}
