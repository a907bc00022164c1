package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicfile"
)

// The model registry: named, versioned, explicitly published models. A
// training job produces one fitted classification; publishing copies that
// artifact into the registry under a caller-chosen model ID as the next
// version. Versions are immutable once published; which version serves
// unpinned predict traffic is a separate, explicit activation step.
//
// Everything lives under <dir>/registry/:
//
//	registry.json     — the full registry state (atomic tmp+rename)
//	<id>/v<N>.ckpt    — the published model artifacts, content-addressed
//	                    by the sha256 recorded in registry.json
//
// A restarted daemon reloads registry.json and serves the same versions
// with the same bits: artifacts are verified against their recorded
// checksum when first loaded.

// ModelVersion describes one published, immutable model artifact.
type ModelVersion struct {
	Version int    `json:"version"`
	JobID   string `json:"job_id"`
	// Fitted-model summary copied from the producing job.
	J     int     `json:"j"`
	Score float64 `json:"score"`
	// Checksum is the hex sha256 of the checkpoint file, verified on load.
	Checksum string    `json:"checksum"`
	Created  time.Time `json:"created"`
}

// regModel is one registry entry.
type regModel struct {
	ID string `json:"id"`
	// Active is the version serving unpinned predicts; 0 means none.
	Active   int            `json:"active"`
	Versions []ModelVersion `json:"versions"`
	// Attrs is the training schema, needed to restore the checkpoint and
	// validate predict rows. Fixed by the first published version.
	Attrs []AttrSpec `json:"attrs"`
}

type registryState struct {
	Models map[string]*regModel `json:"models"`
}

// registry is the in-memory registry plus its persistence. It has its own
// lock so model publication never contends with the job runner.
type registry struct {
	dir string
	mu  sync.Mutex
	st  registryState
}

func openRegistry(dir string) (*registry, error) {
	r := &registry{dir: dir, st: registryState{Models: map[string]*regModel{}}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: registry directory: %w", err)
	}
	path := filepath.Join(dir, "registry.json")
	if _, err := os.Stat(path); err == nil {
		if err := readJSON(path, &r.st); err != nil {
			return nil, fmt.Errorf("serve: load registry: %w", err)
		}
		if r.st.Models == nil {
			r.st.Models = map[string]*regModel{}
		}
		if err := r.st.validate(); err != nil {
			return nil, fmt.Errorf("serve: load registry: %w", err)
		}
	}
	return r, nil
}

// validate checks a loaded registry.json against what publish and
// activate write: every entry present, keyed by its own valid ID (the key
// becomes a path element), versions positive and strictly increasing
// (publish appends the last one plus one), and the active version 0 or
// one of them.
func (st *registryState) validate() error {
	for key, m := range st.Models {
		if m == nil {
			return fmt.Errorf("model %q: null entry", key)
		}
		if err := validModelID(key); err != nil {
			return fmt.Errorf("model %q: %w", key, err)
		}
		if m.ID != key {
			return fmt.Errorf("model %q: entry has id %q", key, m.ID)
		}
		last := 0
		for _, ver := range m.Versions {
			if ver.Version < 1 {
				return fmt.Errorf("model %q: version %d is not positive", key, ver.Version)
			}
			if ver.Version <= last {
				return fmt.Errorf("model %q: version %d after version %d is a duplicate or out of order", key, ver.Version, last)
			}
			last = ver.Version
		}
		if m.Active != 0 && !m.hasVersion(m.Active) {
			return fmt.Errorf("model %q: active version %d is not among its versions", key, m.Active)
		}
	}
	return nil
}

// persist writes registry.json atomically. Callers hold r.mu.
func (r *registry) persist() error {
	return writeJSON(filepath.Join(r.dir, "registry.json"), &r.st)
}

func (r *registry) versionPath(id string, v int) string {
	return filepath.Join(r.dir, id, fmt.Sprintf("v%d.ckpt", v))
}

// validModelID enforces the registry ID grammar: 1..64 chars drawn from
// [A-Za-z0-9._-], at least one non-digit. Purely numeric names are
// reserved for the deprecated job-ID predict fallback, and the charset
// keeps IDs safe as path elements.
func validModelID(id string) error {
	if id == "" || len(id) > 64 {
		return errors.New("model id must be 1..64 characters")
	}
	digits := 0
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '.' || c == '_' || c == '-':
		default:
			return fmt.Errorf("model id contains %q; allowed: letters, digits, '.', '_', '-'", c)
		}
	}
	if digits == len(id) {
		return errors.New("purely numeric model ids are reserved for job ids")
	}
	if id == "." || id == ".." {
		return errors.New("model id must not be a relative path element")
	}
	return nil
}

// publish copies the artifact at srcCkpt into the registry as the next
// version of id, creating the model on first publish. attrs/j/score come
// from the producing job. When activate is true (or this is the model's
// first version) the new version becomes active.
func (r *registry) publish(id, jobID string, attrs []AttrSpec, j int, score float64, srcCkpt string, activate bool) (ModelVersion, int, error) {
	if err := validModelID(id); err != nil {
		return ModelVersion{}, 0, err
	}
	art, err := os.ReadFile(srcCkpt)
	if err != nil {
		return ModelVersion{}, 0, fmt.Errorf("read model artifact: %w", err)
	}
	sum := sha256.Sum256(art)

	r.mu.Lock()
	defer r.mu.Unlock()
	// A new model joins the registry only once its first artifact is on
	// disk: a failed write must not list an empty model.
	m := r.st.Models[id]
	if m == nil {
		m = &regModel{ID: id, Attrs: attrs}
	}
	next := 1
	if n := len(m.Versions); n > 0 {
		next = m.Versions[n-1].Version + 1
	}
	ver := ModelVersion{
		Version:  next,
		JobID:    jobID,
		J:        j,
		Score:    score,
		Checksum: hex.EncodeToString(sum[:]),
		Created:  time.Now().UTC(),
	}
	dst := r.versionPath(id, next)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return ModelVersion{}, 0, err
	}
	// Artifact first, registry.json second: a crash between the two leaves
	// an orphaned file, never a registered version without its bits.
	if err := atomicfile.Write(dst, art); err != nil {
		return ModelVersion{}, 0, err
	}
	r.st.Models[id] = m
	m.Versions = append(m.Versions, ver)
	if activate || m.Active == 0 {
		m.Active = next
	}
	if err := r.persist(); err != nil {
		// Roll the in-memory state back so memory and disk agree.
		m.Versions = m.Versions[:len(m.Versions)-1]
		if m.Active == next {
			m.Active = 0
			if n := len(m.Versions); n > 0 {
				m.Active = m.Versions[n-1].Version
			}
		}
		if len(m.Versions) == 0 {
			delete(r.st.Models, id)
		}
		return ModelVersion{}, 0, err
	}
	return ver, m.Active, nil
}

// activate makes version v of id serve unpinned predict traffic.
func (r *registry) activate(id string, v int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.st.Models[id]
	if m == nil {
		return fmt.Errorf("no model %q", id)
	}
	if !m.hasVersion(v) {
		return fmt.Errorf("model %q has no version %d", id, v)
	}
	prev := m.Active
	m.Active = v
	if err := r.persist(); err != nil {
		m.Active = prev
		return err
	}
	return nil
}

func (m *regModel) hasVersion(v int) bool {
	for _, ver := range m.Versions {
		if ver.Version == v {
			return true
		}
	}
	return false
}

// resolve maps (id, pin) to the version to serve: the pin when given,
// otherwise the active version. found=false means no such model; v=0 with
// found=true means the model exists but nothing is servable.
func (r *registry) resolve(id string, pin int) (v int, attrs []AttrSpec, found bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.st.Models[id]
	if m == nil {
		return 0, nil, false
	}
	if pin != 0 {
		if !m.hasVersion(pin) {
			return 0, m.Attrs, true
		}
		return pin, m.Attrs, true
	}
	return m.Active, m.Attrs, true
}

// get returns a deep-enough copy of one model's registry entry.
func (r *registry) get(id string) (regModel, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.st.Models[id]
	if m == nil {
		return regModel{}, false
	}
	cp := *m
	cp.Versions = append([]ModelVersion(nil), m.Versions...)
	cp.Attrs = append([]AttrSpec(nil), m.Attrs...)
	return cp, true
}

// list returns every model entry sorted by ID.
func (r *registry) list() []regModel {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]regModel, 0, len(r.st.Models))
	for _, m := range r.st.Models {
		cp := *m
		cp.Versions = append([]ModelVersion(nil), m.Versions...)
		cp.Attrs = append([]AttrSpec(nil), m.Attrs...)
		out = append(out, cp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// checksum looks up the recorded artifact checksum of (id, v).
func (r *registry) checksum(id string, v int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.st.Models[id]
	if m == nil {
		return "", false
	}
	for _, ver := range m.Versions {
		if ver.Version == v {
			return ver.Checksum, true
		}
	}
	return "", false
}
