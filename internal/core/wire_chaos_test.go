package core_test

import (
	"fmt"

	"github.com/lmp-project/lmp/internal/chaos"
	"github.com/lmp-project/lmp/internal/core"
	"github.com/lmp-project/lmp/internal/daemon"
	"github.com/lmp-project/lmp/internal/rpc"
)

// The chaos driver's wire backend lives here, in package core_test,
// because it needs the daemon and the daemon imports core.
func init() { core.SetWireLenders(loopbackLenders) }

// loopbackLenders starts one lmpd daemon per configured server, on a
// loopback listener, puts a chaos proxy of in in front of each, and
// dials each through its proxy: server i's lender is a daemon.Client
// whose every call crosses proxy i. closeAll stops them all.
func loopbackLenders(cfg core.Config, in *chaos.Injector) (lenders []core.Lender, proxies []*chaos.Proxy, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	for i, sc := range cfg.Servers {
		srv, err := daemon.NewServer(sc.Name, sc.Capacity, sc.SharedBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		closers = append(closers, func() { srv.Close() })
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, fmt.Errorf("listen on loopback: %w", err)
		}
		p, err := in.Proxy(i, bound)
		if err != nil {
			return nil, nil, nil, err
		}
		closers = append(closers, p.Close)
		c, err := rpc.Dial(p.Addr())
		if err != nil {
			return nil, nil, nil, err
		}
		closers = append(closers, func() { c.Close() })
		lenders = append(lenders, daemon.WrapCaller(c))
		proxies = append(proxies, p)
	}
	return lenders, proxies, closeAll, nil
}
