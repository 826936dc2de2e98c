package sim

// FrontierSlots exposes how many slots of the last run completed on the
// frontier path (see the package comment), so tests can prove a
// configuration took it — or stayed off it — instead of inferring that
// from timing.
func (r *Runner) FrontierSlots() int { return r.frontierSlots }

// Figure2Params and Figure2Victims hand the Figure 2 construction (see
// figure2_test.go) to the external test package.
var (
	Figure2Params  = figure2Params
	Figure2Victims = figure2Victims
)
