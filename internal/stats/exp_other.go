//go:build !amd64

package stats

// fastExp is false off amd64: ExpShiftSum runs its scalar loop.
const fastExp = false

// expShiftSumQuads does no element off amd64.
func expShiftSumQuads(v, shift, sum []float64) int { return 0 }

// fastOcts is false off amd64: ExpShiftSum has no 8-wide stage.
const fastOcts = false

// expShiftSumOcts does no element off amd64.
func expShiftSumOcts(v, shift, sum []float64) int { return 0 }

// fastLogOcts is false off amd64: LogSumRecip does no row.
const fastLogOcts = false

// logSumRecipOcts does no row off amd64.
func logSumRecipOcts(shift, sum, z []float64) int { return 0 }
