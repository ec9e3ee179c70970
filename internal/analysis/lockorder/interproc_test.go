package lockorder_test

import (
	"testing"

	"github.com/lmp-project/lmp/internal/analysis/analysistest"
	"github.com/lmp-project/lmp/internal/analysis/lockorder"
)

func TestInterprocedural(t *testing.T) {
	analysistest.RunProgram(t, "testdata", lockorder.Analyzer, "rpc", "interproc")
}

func TestPendingTableRule(t *testing.T) {
	analysistest.RunProgram(t, "testdata", lockorder.Analyzer, "rpc", "pendinglock")
}

func TestCommitWindowRules(t *testing.T) {
	analysistest.RunProgram(t, "testdata", lockorder.Analyzer, "commitlock")
}

func TestPinRule(t *testing.T) {
	analysistest.RunProgram(t, "testdata", lockorder.Analyzer, "rpc", "telemetry", "pinuser")
}

func TestVectoredLockLoop(t *testing.T) {
	analysistest.RunProgram(t, "testdata", lockorder.Analyzer, "rpc", "vectored")
}

func TestLenderCalls(t *testing.T) {
	analysistest.RunProgram(t, "testdata", lockorder.Analyzer, "rpc", "telemetry", "core")
}
