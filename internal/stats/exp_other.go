//go:build !amd64

package stats

// fastExp is false off amd64: ExpInPlace calls math.Exp.
const fastExp = false

// expQuads does no element off amd64.
func expQuads(x []float64) int { return 0 }
