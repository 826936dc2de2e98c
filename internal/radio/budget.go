package radio

import "errors"

// ErrBudgetExhausted is returned by Budget.Spend when the message budget is
// used up. Energy-constrained nodes in the model have a hard cap on the
// number of messages they may ever transmit.
var ErrBudgetExhausted = errors.New("radio: message budget exhausted")

// Budget tracks the message budget of one node. A negative limit means
// unlimited (the base station). The zero value is a zero budget.
type Budget struct {
	limit int
	used  int
}

// NewBudget returns a budget with the given limit; limit < 0 is unlimited.
func NewBudget(limit int) Budget { return Budget{limit: limit} }

// Unlimited returns an unbounded budget (the base station's).
func Unlimited() Budget { return Budget{limit: -1} }

// Spend consumes one message. It returns ErrBudgetExhausted (and consumes
// nothing) when the budget is gone.
func (b *Budget) Spend() error {
	if b.limit >= 0 && b.used >= b.limit {
		return ErrBudgetExhausted
	}
	b.used++
	return nil
}

// TrySpend consumes one message and reports whether it succeeded.
func (b *Budget) TrySpend() bool { return b.Spend() == nil }

// Used returns the number of messages spent so far.
func (b *Budget) Used() int { return b.used }

// Left returns the remaining budget, or a negative value when unlimited.
func (b *Budget) Left() int {
	if b.limit < 0 {
		return -1
	}
	return b.limit - b.used
}
