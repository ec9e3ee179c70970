package simtime_test

import (
	"testing"

	"github.com/lmp-project/lmp/internal/analysis/analysistest"
	"github.com/lmp-project/lmp/internal/analysis/simtime"
)

func TestSimTime(t *testing.T) {
	analysistest.Run(t, "testdata", simtime.Analyzer, "internal/sim", "internal/model", "notsim")
}
