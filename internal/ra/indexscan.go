package ra

import (
	"context"
	"fmt"

	"hippo/internal/schema"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// IndexLookup reads the rows of a table whose indexed columns equal the
// given constant key — the access-path alternative to Scan+Select that
// the engine's optimizer installs for equality predicates covered by an
// existing index. Key expressions are evaluated once at Open (they must
// be row-independent) and are listed in the index's column order.
type IndexLookup struct {
	Table storage.Relation
	Index *storage.Index
	Key   []Expr
	Alias string
}

// Schema matches the equivalent Scan's schema.
func (n *IndexLookup) Schema() schema.Schema {
	q := n.Alias
	if q == "" {
		q = n.Table.Name()
	}
	return n.Table.Schema().WithQualifier(q)
}

// Children returns no inputs.
func (n *IndexLookup) Children() []Node { return nil }

func (n *IndexLookup) String() string {
	return fmt.Sprintf("IndexLookup(%s on cols %v = %s)",
		n.Table.Name(), n.Index.Columns(), ExprsString(n.Key))
}

// Open evaluates the key and streams the matching live rows.
func (n *IndexLookup) Open(ctx context.Context) (Iterator, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if len(n.Key) != len(n.Index.Columns()) {
		return nil, fmt.Errorf("ra: index lookup key arity %d != index arity %d",
			len(n.Key), len(n.Index.Columns()))
	}
	key := make(value.Tuple, len(n.Key))
	for i, e := range n.Key {
		v, err := e.Eval(nil)
		if err != nil {
			return nil, fmt.Errorf("ra: index lookup key must be constant: %v", err)
		}
		key[i] = v
	}
	// Resolve through the relation so a live table can synchronize the
	// bucket read against concurrent writers.
	ids := n.Table.IndexLookup(n.Index, key)
	rows := make([]value.Tuple, 0, len(ids))
	for _, id := range ids {
		if row, ok := n.Table.Row(id); ok {
			rows = append(rows, row)
		}
	}
	return &sliceIter{rows: rows}, nil
}
