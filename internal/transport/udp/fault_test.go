package udp

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// faultCluster builds a started PIF Cluster with the given plan installed
// on every node.
func faultCluster(t *testing.T, n int, plan *core.FaultPlan) (*Cluster, []*pif.PIF) {
	t.Helper()
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		self := core.ProcID(i)
		machines[i] = pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(DefaultAssumedCapacity))
		stacks[i] = core.Stack{machines[i]}
	}
	c, err := NewCluster(stacks, WithFaults(plan))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, machines
}

func TestPIFOverUDPUnderFaultPlan(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	plan := &core.FaultPlan{
		Seed: 9,
		Default: core.LinkFaults{
			DropRate:    0.15,
			DupRate:     0.10,
			ReorderRate: 0.10,
			DelayRate:   0.05,
			DelayTicks:  5,
			CorruptRate: 0.05,
		},
	}
	c, machines := faultCluster(t, n, plan)

	token := core.Payload{Tag: "hello", Num: 4}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	ok := waitFor(t, 30*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("broadcast over UDP did not survive the fault plan")
	}
	var agg core.FaultStats
	for _, s := range c.TransportStats() {
		agg.Add(s.Faults)
	}
	if agg.Total() == 0 {
		t.Fatal("fault plan injected nothing at the mailbox boundary")
	}
}

func TestCrashRestartWindowOverUDP(t *testing.T) {
	// Not parallel: shares the loopback path (see above).
	const n = 3
	plan := &core.FaultPlan{
		Seed:    9,
		Unit:    time.Millisecond,
		Crashes: []core.CrashWindow{{Proc: 1, From: 0, Until: 250}},
	}
	c, machines := faultCluster(t, n, plan)

	token := core.Payload{Tag: "hello", Num: 7}
	c.Do(0, func(env core.Env) { machines[0].Invoke(env, token) })
	// The decision needs feedback from the crashed node, so completion
	// implies the window ended and the warm restart worked.
	ok := waitFor(t, 30*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("broadcast did not complete after the crash window")
	}
	if c.TransportStats()[1].Faults.CrashDrops == 0 {
		t.Fatal("no arrivals were consumed during the crash window")
	}
}

func TestInvalidFaultPlanRejectedAtBind(t *testing.T) {
	t.Parallel()
	bad := &core.FaultPlan{Default: core.LinkFaults{DropRate: 1.5}}
	if _, err := NewNode(0, core.Stack{}, "127.0.0.1:0", make([]string, 2), WithFaults(bad)); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
