package summary

// externalFacts returns the facts of a function outside the loaded
// units. Only the waits and mutexes the module's lock discipline cares
// about are listed; anything unlisted carries no facts. Proc pins never
// reach this table: a pin call is a lock operation at its call site.
func externalFacts(id string) Fact {
	return exactFacts[id]
}

// exactFacts lists the externals that block or take a mutex.
var exactFacts = map[string]Fact{
	"(*sync.Mutex).Lock":     BlocksMutex,
	"(*sync.RWMutex).Lock":   BlocksMutex,
	"(*sync.RWMutex).RLock":  BlocksMutex,
	"(*sync.WaitGroup).Wait": BlocksChan,
	"(*sync.Cond).Wait":      BlocksChan,
	"(*sync.Once).Do":        BlocksMutex, // runs f once under the Once's mutex
	"time.Sleep":             BlocksChan,
	"time.After":             BlocksChan,
	"runtime.Gosched":        BlocksChan,
}
