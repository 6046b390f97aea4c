package store

// Fixtures for the external test package: the query engine imports this
// package, so rawplan_test.go, which runs it, is package store_test.
var (
	MustOpen          = mustOpen
	FillVaried        = fillVaried
	RewriteSegmentsV1 = rewriteSegmentsV1
)
