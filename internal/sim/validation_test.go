package sim_test

import (
	"context"
	"errors"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
)

// TestConfigValidation runs one table of configs the run frame must
// refuse through every engine: the frame (sim.Frame) does the refusing
// once, so each row must fail on the fast and the reference engine
// alike.
func TestConfigValidation(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 5, MF: 4}
	specB := func(p core.Params) core.Spec {
		spec, err := core.NewProtocolB(p)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	good := sim.Config{Topo: tor, Params: p, Spec: specB(p)}
	engines := []struct {
		name string
		run  func(context.Context, sim.Config) (*sim.Result, error)
	}{
		{"fast", sim.RunContext},
		{"ref", ref.RunContext},
	}
	for _, row := range []struct {
		name string
		edit func(*sim.Config)
		// is, when non-nil, must be in the error's chain.
		is error
	}{
		{name: "nil topology", edit: func(c *sim.Config) { c.Topo = nil }},
		{name: "invalid params", edit: func(c *sim.Config) { c.Params = core.Params{R: 2, T: -1, MF: 4} }, is: core.ErrBadT},
		{name: "invalid spec", edit: func(c *sim.Config) { c.Spec = core.Spec{} }},
		{name: "range mismatch", edit: func(c *sim.Config) {
			c.Params = core.Params{R: 3, T: 0, MF: 0}
			c.Spec = specB(c.Params)
		}},
		{name: "non-divisible torus", edit: func(c *sim.Config) { c.Topo = grid.MustNew(21, 20, 2) }, is: grid.ErrNotDivisible},
		{name: "source out of range", edit: func(c *sim.Config) { c.Source = grid.NodeID(tor.Size()) }},
		{name: "negative source", edit: func(c *sim.Config) { c.Source = -1 }},
		{name: "machine refuses", edit: func(c *sim.Config) { c.Machine = &protocol.Multi{Spec: c.Spec, M: tor.Size() + 1} }},
		{name: "placement above t", edit: func(c *sim.Config) {
			c.Params = core.Params{R: 2, T: 1, MF: 4}
			c.Spec = specB(c.Params)
			c.Placement = adversary.Random{T: 3, Density: 0.2, Seed: 3} // t=3 > params.T=1
		}},
		{name: "placement fails", edit: func(c *sim.Config) { c.Placement = adversary.Union{} }},
	} {
		cfg := good
		row.edit(&cfg)
		for _, eng := range engines {
			t.Run(row.name+"/"+eng.name, func(t *testing.T) {
				_, err := eng.run(context.Background(), cfg)
				if err == nil {
					t.Fatal("config accepted")
				}
				if row.is != nil && !errors.Is(err, row.is) {
					t.Fatalf("err = %v, want %v in its chain", err, row.is)
				}
			})
		}
	}
}
