package arch

import (
	"fmt"
	"strings"
)

// registry is the one name→constructor table every caller builds through.
// An entry's first name is its canonical spelling (oosim's -arch value);
// any further names are the sweep spec's spellings of the same
// architecture. Only DemandAware reads the DemandConfig.
var registry = []struct {
	names []string
	build func(Options, DemandConfig) (*Instance, error)
}{
	{[]string{"clos"}, func(o Options, _ DemandConfig) (*Instance, error) { return Clos(o) }},
	{[]string{"c-through", "cthrough"}, func(o Options, _ DemandConfig) (*Instance, error) { return CThrough(o) }},
	{[]string{"jupiter"}, func(o Options, _ DemandConfig) (*Instance, error) { return Jupiter(o) }},
	{[]string{"mordia"}, func(o Options, _ DemandConfig) (*Instance, error) { return Mordia(o) }},
	{[]string{"rotornet-vlb", "rotornet"}, rotorNet(SchemeVLB)},
	{[]string{"rotornet-direct"}, rotorNet(SchemeDirect)},
	{[]string{"rotornet-ucmp"}, rotorNet(SchemeUCMP)},
	{[]string{"rotornet-hoho"}, rotorNet(SchemeHOHO)},
	{[]string{"opera"}, func(o Options, _ DemandConfig) (*Instance, error) { return Opera(o) }},
	{[]string{"semi-oblivious", "semioblivious"}, func(o Options, _ DemandConfig) (*Instance, error) { return SemiOblivious(o) }},
	{[]string{"shale"}, func(o Options, _ DemandConfig) (*Instance, error) { return Shale(o, 2) }},
	{[]string{"daware"}, DemandAware},
}

func rotorNet(s Scheme) func(Options, DemandConfig) (*Instance, error) {
	return func(o Options, _ DemandConfig) (*Instance, error) { return RotorNet(o, s) }
}

// Build constructs the named architecture. It accepts every spelling in
// the registry: "c-through" or "cthrough", "semi-oblivious" or
// "semioblivious", and "rotornet-<scheme>", with bare "rotornet" meaning
// VLB.
func Build(name string, o Options, dc DemandConfig) (*Instance, error) {
	build := lookup(name)
	if build == nil {
		return nil, fmt.Errorf("arch: unknown architecture %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return build(o, dc)
}

// Known reports whether Build accepts name.
func Known(name string) bool { return lookup(name) != nil }

func lookup(name string) func(Options, DemandConfig) (*Instance, error) {
	for _, e := range registry {
		for _, n := range e.names {
			if n == name {
				return e.build
			}
		}
	}
	return nil
}

// Names lists the canonical architecture names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.names[0]
	}
	return out
}
