package radio

// Budget tracks the message budget of one node. Energy-constrained nodes
// in the model have a hard cap on the number of messages they may ever
// transmit; a negative limit means unlimited (the base station). The zero
// value is a zero budget.
type Budget struct {
	limit int
	used  int
}

// NewBudget returns a budget with the given limit; limit < 0 is unlimited.
func NewBudget(limit int) Budget { return Budget{limit: limit} }

// Unlimited returns an unbounded budget (the base station's).
func Unlimited() Budget { return Budget{limit: -1} }

// TrySpend consumes one message and reports whether it succeeded; it
// consumes nothing when the budget is gone.
func (b *Budget) TrySpend() bool {
	if b.limit >= 0 && b.used >= b.limit {
		return false
	}
	b.used++
	return true
}

// Left returns the remaining budget, or a negative value when unlimited.
func (b *Budget) Left() int {
	if b.limit < 0 {
		return -1
	}
	return b.limit - b.used
}
