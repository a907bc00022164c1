package dataset

import (
	"fmt"

	"repro/internal/rng"
)

// Range describes a contiguous block of global row indices [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// BlockPartition splits n rows into p contiguous blocks whose sizes differ
// by at most one, exactly as P-AutoClass distributes the dataset across
// processors ("each processor executes the same code on data of equal
// size", paper §3). Ranks r < n%p receive the extra row.
func BlockPartition(n, p int) ([]Range, error) {
	if p <= 0 {
		return nil, fmt.Errorf("dataset: partition over %d ranks", p)
	}
	if n < 0 {
		return nil, fmt.Errorf("dataset: partition of %d rows", n)
	}
	out := make([]Range, p)
	base := n / p
	rem := n % p
	lo := 0
	for r := 0; r < p; r++ {
		size := base
		if r < rem {
			size++
		}
		out[r] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out, nil
}

// SplitShuffled deterministically shuffles the rows and splits them into a
// training set with ceil(trainFrac·N) rows and a test set with the rest —
// the held-out evaluation path. trainFrac must lie in (0, 1).
func SplitShuffled(d *Dataset, trainFrac float64, seed uint64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %v out of (0,1)", trainFrac)
	}
	perm := rng.New(seed).Perm(d.N())
	nTrain := int(float64(d.N())*trainFrac + 0.999999)
	if nTrain >= d.N() {
		nTrain = d.N() - 1
	}
	if nTrain < 1 {
		return nil, nil, fmt.Errorf("dataset: %d rows cannot be split", d.N())
	}
	mk := func(idx []int, name string) (*Dataset, error) {
		out, err := New(name, d.Attrs())
		if err != nil {
			return nil, err
		}
		out.Grow(len(idx))
		row := make([]float64, len(d.attrs))
		for _, i := range idx {
			if err := out.AppendRow(d.RowTo(row, i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	train, err = mk(perm[:nTrain], d.Name+"-train")
	if err != nil {
		return nil, nil, err
	}
	test, err = mk(perm[nTrain:], d.Name+"-test")
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// PartitionViews returns one zero-copy View per rank covering the block
// partition of the dataset.
func PartitionViews(d *Dataset, p int) ([]*View, error) {
	parts, err := BlockPartition(d.N(), p)
	if err != nil {
		return nil, err
	}
	views := make([]*View, p)
	for r, rg := range parts {
		v, err := d.View(rg.Lo, rg.Len())
		if err != nil {
			return nil, err
		}
		views[r] = v
	}
	return views, nil
}
