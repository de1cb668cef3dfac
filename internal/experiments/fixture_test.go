package experiments

import (
	"errors"
	"fmt"
	"time"

	"narada/internal/core"
	"narada/internal/simnet"
)

// fixtureRun is one hand-built discovery outcome: no simulator, no clock.
type fixtureRun struct {
	res *core.Result
	err error
}

// fixtureRuns builds n outcomes whose every reported quantity is a plain
// function of the run index. Runs 4 and 9 fail. Selections are
// cardiff×4 fsu×3 ncsa×2 umn×1 over the ten successes of twelve runs: no tie
// for first place, so the parent's map-order tie-break is not in play.
func fixtureRuns(n int) []fixtureRun {
	names := []string{"broker-cardiff", "broker-fsu", "broker-ncsa", "broker-umn", "broker-indianapolis"}
	pick := []int{0, 1, 0, 2, 0, 1, 0, 3, 1, 0, 2, 0}
	realms := []string{simnet.SiteIndianapolis, simnet.SiteFSU, simnet.SiteUMN, simnet.SiteCardiff, simnet.SiteNCSA}
	runs := make([]fixtureRun, n)
	for i := range runs {
		if i == 4 || i == 9 {
			runs[i].err = errors.New("core: no discovery responses received")
			continue
		}
		res := &core.Result{
			Selected: core.BrokerInfo{LogicalAddress: names[pick[i%len(pick)]]},
			BDN:      "gridservicelocator.org",
		}
		if i%4 == 0 {
			res.BDN = "gridservicelocator.com"
		}
		d := time.Duration(i)
		res.Timing.Set(core.PhaseRequestIssue, 90*time.Millisecond+d*time.Millisecond)
		res.Timing.Set(core.PhaseWaitResponses, 400*time.Millisecond+7*d*time.Millisecond+d*333*time.Microsecond)
		res.Timing.Set(core.PhaseShortlist, 200*time.Microsecond+10*d*time.Microsecond)
		res.Timing.Set(core.PhasePing, 30*time.Millisecond+d*d*time.Millisecond)
		res.Timing.Set(core.PhaseDecide, 50*time.Microsecond)
		// Every third run hears only the lab-local broker; the others hear
		// 2..4 brokers across the WAN.
		heard := 1
		if i%3 != 0 {
			heard = 2 + i%3
		}
		for j := 0; j < heard; j++ {
			res.Responses = append(res.Responses, core.Candidate{Response: &core.DiscoveryResponse{
				Broker: core.BrokerInfo{LogicalAddress: fmt.Sprintf("b%d", j), Realm: realms[j]},
			}})
		}
		runs[i].res = res
	}
	return runs
}
