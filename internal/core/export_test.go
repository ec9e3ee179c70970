package core

import "github.com/lmp-project/lmp/internal/chaos"

// wireLenders builds the chaos driver's wire backend: for every server of
// cfg, a lender behind a proxy of in, and what tears them down. It is
// nil until wire_chaos_test.go, in package core_test, installs it.
var wireLenders func(cfg Config, in *chaos.Injector) ([]Lender, []*chaos.Proxy, func(), error)

// SetWireLenders installs the chaos driver's wire backend.
func SetWireLenders(f func(cfg Config, in *chaos.Injector) ([]Lender, []*chaos.Proxy, func(), error)) {
	wireLenders = f
}
