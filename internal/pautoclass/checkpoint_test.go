package pautoclass

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
)

// clsBytes serializes a classification; bitwise-equal outputs mean
// bitwise-equal classifications (JSON float64 encoding round-trips
// exactly).
func clsBytes(t *testing.T, cls *autoclass.Classification) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&autoclass.Checkpoint{Classification: cls}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointed returns opts with checkpointing configured.
func checkpointed(opts Options, ck Checkpoint) Options {
	opts.Checkpoint = ck
	return opts
}

// TestCheckpointingDoesNotPerturbSearch: the checkpoint hook communicates
// (the agreement collective) and writes files, but must not change the
// search trajectory at all.
func TestCheckpointingDoesNotPerturbSearch(t *testing.T) {
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	plain := runParallelSearch(t, ds, 3, cfg, DefaultOptions())

	path := filepath.Join(t.TempDir(), "search.ckpt")
	var ckRes *autoclass.SearchResult
	err := mpi.Run(3, func(c *mpi.Comm) error {
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path, Every: 2}))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			ckRes = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clsBytes(t, plain.Best), clsBytes(t, ckRes.Best)) {
		t.Error("checkpointed search found a different best classification")
	}
	if !reflect.DeepEqual(plain.Tries, ckRes.Tries) {
		t.Errorf("checkpointed search tries diverged:\nplain: %+v\nckpt:  %+v", plain.Tries, ckRes.Tries)
	}
	// A finished search re-launched against its own state file returns
	// immediately with the identical result.
	err = mpi.Run(3, func(c *mpi.Comm) error {
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path, Every: 2}))
		if err != nil {
			return err
		}
		if !bytes.Equal(clsBytes(t, res.Best), clsBytes(t, ckRes.Best)) {
			t.Error("re-launched finished search returned a different best")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillAndResumeBitwiseIdentical is the acceptance test for distributed
// checkpoint/restart: a parallel run killed mid-search (a victim rank's
// transport fails persistently, crashing the group) and resumed from its
// last checkpoint must produce the bitwise-identical final classification
// to an uninterrupted run — over both the in-process and the TCP
// transport.
func TestKillAndResumeBitwiseIdentical(t *testing.T) {
	const (
		p      = 4
		victim = 1
	)
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()

	// The uninterrupted reference trajectory.
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())
	refBest := clsBytes(t, ref.Best)

	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "search.ckpt")
			ck := Checkpoint{Path: path, Every: 2}

			// Kill: the victim's transport fails persistently after a send
			// budget, several cycles into the first try — a crashed node.
			plans := map[int]mpi.FaultPlan{
				victim: {Faults: []mpi.Fault{{Op: "send", Peer: -1, After: 150}}},
			}
			errs, err := rankErrors(p, mpi.RunConfig{TCP: tcp, Faults: plans}, func(c *mpi.Comm) error {
				_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), ck))
				return err
			})
			if errs[victim] == nil {
				t.Fatal("victim completed the search; fault budget too large to interrupt it")
			}
			if err == nil {
				t.Fatal("RunWith reported no failure")
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no checkpoint was written before the crash: %v", err)
			}

			// Resume on healthy transports; must complete and match the
			// uninterrupted run bit for bit.
			err = mpi.RunWith(p, mpi.RunConfig{TCP: tcp}, func(c *mpi.Comm) error {
				res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), ck))
				if err != nil {
					return err
				}
				if got := clsBytes(t, res.Best); !bytes.Equal(got, refBest) {
					t.Errorf("rank %d: resumed best classification differs from uninterrupted run", c.Rank())
				}
				if !reflect.DeepEqual(res.Tries, ref.Tries) {
					t.Errorf("rank %d: resumed tries diverged:\nref:    %+v\nresume: %+v", c.Rank(), ref.Tries, res.Tries)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInterruptAndResumeBitwiseIdentical covers the cooperative stop path
// the serving daemon uses: an in-flight search whose Checkpoint.Interrupt
// flips mid-run must return ErrInterrupted on every rank after persisting a
// resumable snapshot, and the resumed search must reproduce the
// uninterrupted trajectory bit for bit. The interrupt is raised on a
// non-zero rank only, so the test also proves the Allreduce(Max) agreement
// propagates a stop seen by a single rank to the whole group.
func TestInterruptAndResumeBitwiseIdentical(t *testing.T) {
	const p = 3
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()

	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())
	refBest := clsBytes(t, ref.Best)

	path := filepath.Join(t.TempDir(), "search.ckpt")
	var stopped atomic.Bool
	err := mpi.Run(p, func(c *mpi.Comm) error {
		cycles := 0
		ck := Checkpoint{
			Path: path,
			Interrupt: func() bool {
				// Only rank 1 ever requests the stop, a few cycles in.
				if c.Rank() != 1 {
					return false
				}
				cycles++
				return cycles > 3
			},
		}
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), ck))
		if errors.Is(err, ErrInterrupted) {
			stopped.Store(true)
			return nil
		}
		if err != nil {
			return err
		}
		return errors.New("search completed; interrupt was ignored")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped.Load() {
		t.Fatal("no rank reported ErrInterrupted")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot was written at the interrupt: %v", err)
	}

	// Resume without an interrupt; the result must match the uninterrupted
	// reference bitwise.
	err = mpi.Run(p, func(c *mpi.Comm) error {
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path}))
		if err != nil {
			return err
		}
		if got := clsBytes(t, res.Best); !bytes.Equal(got, refBest) {
			t.Errorf("rank %d: resumed best classification differs from uninterrupted run", c.Rank())
		}
		if !reflect.DeepEqual(res.Tries, ref.Tries) {
			t.Errorf("rank %d: resumed tries diverged:\nref:    %+v\nresume: %+v", c.Rank(), ref.Tries, res.Tries)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoSnapshotAtTryEnd: a try that runs to MaxCycles takes no mid-try
// snapshot on its last cycle, since the try's commit replaces it at once.
// With MaxCycles 8 and Every 4, a one-try search writes its state twice,
// the cycle-4 snapshot and the commit, so a fault armed for the third
// write never fires.
func TestNoSnapshotAtTryEnd(t *testing.T) {
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{5}
	cfg.EM.MaxCycles = 8
	opts := checkpointed(DefaultOptions(), Checkpoint{Path: filepath.Join(t.TempDir(), "search.ckpt"), Every: 4})
	opts.EM = cfg.EM
	defer atomicfile.Inject("search.ckpt", 2, atomicfile.NoSpace)()
	var res *autoclass.SearchResult
	err := mpi.Run(2, func(c *mpi.Comm) error {
		r, err := Search(c, ds, model.DefaultSpec(ds), cfg, opts)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tries) != 1 || res.Tries[0].Converged || res.Tries[0].Cycles != 8 {
		t.Fatalf("tries %+v, want one try that ran all 8 cycles", res.Tries)
	}
}

// TestSPMDStateWriteFaults is the SPMD twin of the sequential
// TestStateWriteFaults: a state write that fails on rank 0 mid-search ends
// the search on every rank under plain mpi.Run, with no deadline — rank 0's
// closed links release its peer. The file keeps the tries of the last good
// write, and a resume on the same rank count reproduces the uninterrupted
// search bitwise.
func TestSPMDStateWriteFaults(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{2, 3, 4, 5}
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())
	refBest := clsBytes(t, ref.Best)
	for _, tc := range []struct {
		name  string
		fault atomicfile.Fault
		cause error
	}{
		{"short_write", atomicfile.ShortWrite, io.ErrShortWrite},
		{"no_space", atomicfile.NoSpace, syscall.ENOSPC},
		{"rename", atomicfile.RenameFails, syscall.EIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "search.ckpt")
			ck := Checkpoint{Path: path}
			// Without Every, rank 0 writes once per committed try: the
			// third commit fails with two of the four tries on disk.
			const good = 2
			disarm := atomicfile.Inject("search.ckpt", good, tc.fault)
			defer disarm()
			var returned atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- mpi.Run(p, func(c *mpi.Comm) error {
					defer returned.Add(1)
					_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), ck))
					return err
				})
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(15 * time.Second):
				t.Fatalf("search still blocked 15s after the fault (%d of %d ranks returned)", returned.Load(), p)
			}
			disarm()
			if n := returned.Load(); n != p {
				t.Fatalf("%d of %d ranks returned", n, p)
			}
			if !errors.Is(err, tc.cause) {
				t.Fatalf("search error %v, want one wrapping %v", err, tc.cause)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				Completed []autoclass.TryResult `json:"completed"`
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatalf("the last good state no longer parses: %v", err)
			}
			if !reflect.DeepEqual(st.Completed, ref.Tries[:good]) {
				t.Fatalf("state holds tries %+v, want the %d of the last good write %+v", st.Completed, good, ref.Tries[:good])
			}
			res := runParallelSearch(t, ds, p, cfg, checkpointed(DefaultOptions(), ck))
			if !bytes.Equal(clsBytes(t, res.Best), refBest) {
				t.Error("resumed best classification differs from the uninterrupted run")
			}
			if !reflect.DeepEqual(res.Tries, ref.Tries) {
				t.Errorf("resumed tries diverged:\nref:    %+v\nresume: %+v", ref.Tries, res.Tries)
			}
		})
	}
}

// TestInterruptBetweenTries: a stop requested while a try is completing is
// honored at the try boundary — the state file holds the finished try and
// resume continues with the next one, never re-running a completed try.
func TestInterruptBetweenTries(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()

	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())

	path := filepath.Join(t.TempDir(), "search.ckpt")
	err := mpi.Run(p, func(c *mpi.Comm) error {
		// The interrupt is permanently on: the search must stop at the very
		// first poll (the first try's first cycle boundary) having run at
		// most one cycle — and with Every unset, the boundary poll is the
		// only snapshot writer exercised.
		ck := Checkpoint{Path: path, Interrupt: func() bool { return true }}
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), ck))
		if !errors.Is(err, ErrInterrupted) {
			return fmt.Errorf("want ErrInterrupted, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Repeatedly resuming with a flaky interrupt that allows a bounded
	// number of cycles per attempt must still converge to the reference
	// result — the daemon's restart-until-done loop.
	var final *autoclass.SearchResult
	for attempt := 0; attempt < 100 && final == nil; attempt++ {
		err := mpi.Run(p, func(c *mpi.Comm) error {
			cycles := 0
			ck := Checkpoint{Path: path, Interrupt: func() bool {
				cycles++
				return cycles > 5
			}}
			res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), ck))
			if errors.Is(err, ErrInterrupted) {
				return nil
			}
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				final = res
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if final == nil {
		t.Fatal("search never completed across 100 interrupted attempts")
	}
	if !bytes.Equal(clsBytes(t, final.Best), clsBytes(t, ref.Best)) {
		t.Error("interrupt-riddled search found a different best classification")
	}
	if !reflect.DeepEqual(final.Tries, ref.Tries) {
		t.Errorf("interrupt-riddled search tries diverged:\nref:   %+v\ngot:   %+v", ref.Tries, final.Tries)
	}
}
