package bench

import (
	"fmt"

	"remicss/internal/core"
	"remicss/internal/schedule"
)

// LimitedRow compares unlimited and limited (Section IV-E) schedule optima
// at one (κ, μ) point on the Delayed+Lossy channel profile.
//
// Limited schedules guarantee every symbol uses k >= ⌊κ⌋ — required under
// the MICSS/courier threat model where the adversary always controls a
// fixed channel subset — but, as the paper's Section IV-E counterexample
// shows, they can be strictly worse on the other properties. This
// experiment maps where and by how much.
type LimitedRow struct {
	Kappa, Mu float64
	// Unlimited and Limited give the optimal objective value under each
	// schedule family.
	UnlimitedRisk, LimitedRisk       float64
	UnlimitedDelayMs, LimitedDelayMs float64
}

// CompareLimited evaluates the limited-schedule penalty over a (κ, μ) grid
// on the paper's Delayed setup with the Lossy setup's loss rates and
// nominal risks (so every objective is non-trivial).
func CompareLimited(fc FigureConfig) ([]LimitedRow, error) {
	fc = fc.withDefaults()
	setup := Delayed()
	setup.Loss = Lossy().Loss
	set := setup.ChannelSet(fc.PayloadBytes)
	risks := []float64{0.30, 0.10, 0.20, 0.25, 0.15}
	for i := range set {
		set[i].Risk = risks[i]
	}

	var rows []LimitedRow
	for kappa := 1; kappa <= set.N(); kappa++ {
		for _, mu := range muSweep(float64(kappa), set.N(), fc.MuStep) {
			row := LimitedRow{Kappa: float64(kappa), Mu: mu}
			for _, limited := range []bool{false, true} {
				req := schedule.Request{Set: set, Kappa: float64(kappa), Mu: mu, Obj: schedule.ObjectiveRisk, Limited: limited}
				rs, err := schedule.Solve(req)
				if err != nil {
					return nil, fmt.Errorf("limited=%v risk κ=%d μ=%.2f: %w", limited, kappa, mu, err)
				}
				req.Obj = schedule.ObjectiveDelay
				ds, err := schedule.Solve(req)
				if err != nil {
					return nil, fmt.Errorf("limited=%v delay κ=%d μ=%.2f: %w", limited, kappa, mu, err)
				}
				risk, delayMs := rs.Schedule.Risk(set, core.Correlation{}), ds.Schedule.Delay(set)*1e3
				if limited {
					row.LimitedRisk, row.LimitedDelayMs = risk, delayMs
				} else {
					row.UnlimitedRisk, row.UnlimitedDelayMs = risk, delayMs
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
