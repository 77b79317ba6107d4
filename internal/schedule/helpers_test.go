package schedule

import (
	"remicss/internal/core"
	"remicss/internal/lp"
)

// solveSchedule is Solve reduced to its schedule.
func solveSchedule(req Request) (core.Schedule, error) {
	res, err := Solve(req)
	return res.Schedule, err
}

// solveWith solves the request's program over an explicit choice set, so
// tests can force generated candidates on sets the exhaustive enumeration
// would cover.
func solveWith(req Request, choices []core.Choice) (Result, error) {
	prob, err := req.program(choices)
	if err != nil {
		return Result{}, err
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return Result{}, wrapLPError(err)
	}
	return req.result(sol, choices)
}
