package funnel

import (
	"runtime"
	"sync"

	"repro/internal/changelog"
)

// AssessResult pairs one change with its report or error, as produced
// by AssessAll.
type AssessResult struct {
	Change changelog.Change
	Report *Report
	Err    error
}

// AssessAll assesses many software changes concurrently. The paper's
// deployment handles tens of thousands of changes per day against
// millions of KPIs (§2.3, §5); each change's assessment is independent,
// so a worker pool saturates the cores. workers ≤ 0 means GOMAXPROCS.
// Results are returned in the input order.
func (a *Assessor) AssessAll(changes []changelog.Change, workers int) []AssessResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(changes) {
		workers = len(changes)
	}
	results := make([]AssessResult, len(changes))
	if len(changes) == 0 {
		return results
	}

	type job struct{ idx int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rep, err := a.Assess(changes[j.idx])
				results[j.idx] = AssessResult{Change: changes[j.idx], Report: rep, Err: err}
			}
		}()
	}
	for i := range changes {
		jobs <- job{idx: i}
	}
	close(jobs)
	wg.Wait()
	return results
}
