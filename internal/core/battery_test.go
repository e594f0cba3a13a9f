package core_test

import (
	"testing"

	"chameleon/internal/core"
	"chameleon/internal/index"
	"chameleon/internal/index/indextest"
	"chameleon/internal/rl"
)

// TestBattery runs the same differential battery every baseline passes
// against the Chameleon index itself.
func TestBattery(t *testing.T) {
	build := func() index.Index {
		dcfg := rl.DefaultDAREConfig()
		dcfg.SampleCap = 8192
		return core.New(core.Config{
			Name:   "Chameleon",
			Dare:   rl.NewCostDARE(dcfg),
			Policy: rl.NewCostPolicy(rl.DefaultEnv()),
		})
	}
	indextest.Run(t, build, indextest.Options{})
}
