//go:build !amd64

package model

// scoreQuads does no row off amd64: Score runs its Go loop.
func (run *NormalRun) scoreQuads(v, mx []float64, logPi float64, first, fold bool) (o, q int) {
	return 0, 0
}

// foldLaneQuads does no row off amd64: FoldLanes runs Fold's Go loop.
func foldLaneQuads(runs *[Lanes]NormalRun, v *[Lanes][]float64, inv []float64, store bool, s *laneSums) int {
	return 0
}

// foldMaxQuads does no row off amd64: FoldMax runs its Go loop.
func foldMaxQuads(mx, v []float64) int { return 0 }
