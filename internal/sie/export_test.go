package sie

import "dnsobservatory/internal/hll"

// BudgetTx lends the canned transaction of the allocation budgets to the
// external tests.
var BudgetTx = budgetTx

// HashTexts sets what Summarize fills beside the fields a reference
// summarizer computes: the hll hashes of QName and the two endpoint
// texts, marked as hashed.
func HashTexts(sum *Summary) {
	sum.QNameHash = hll.HashString(sum.QName)
	sum.ResolverHash = hll.HashString(sum.ResolverText())
	sum.NameserverHash = hll.HashString(sum.NameserverText())
	sum.textsHashed = true
}
