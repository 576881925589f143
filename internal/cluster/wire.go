// Package cluster implements scatter-gather distributed querying for
// nodbd: a coordinator fans a parsed query out to shard nodbd instances —
// each owning a disjoint set of raw files — and merges their NDJSON
// partial streams back into one result.
//
// The design lifts the paper's in-situ ideas to the network layer:
//
//   - Filter and partial-aggregate pushdown: the coordinator rewrites the
//     query so each shard computes sum/count/min/max and group-by partials
//     locally with its vectorized operators, and only reduced rows cross
//     the network (avg(x) travels as sum(x) plus count(x) and is divided
//     at the coordinator, exactly once, so integer aggregates merge with
//     no precision loss).
//   - Synopsis-aware shard pruning: shards export their per-portion zone
//     maps via /v1/cluster/synopsis; the coordinator caches them and skips
//     a shard entirely when every portion is provably unsatisfiable — the
//     scan's portion-pruning idea applied before any round trip happens.
//   - Degraded mode as a first-class state: per-shard timeouts and bounded
//     retry with backoff, and when a shard stays dead the query completes
//     with partial_results reported in the stats trailer — never silently
//     dropped, never an all-or-nothing error (unless partial results are
//     disabled, or every shard failed).
//
// When the shards hold contiguous, disjoint row ranges of one logical
// dataset (cmd/nodbgen -shard i/n generates exactly that), the merged
// result is byte-identical to a single node scanning the concatenated
// files: concatenation preserves scan order, the k-way merge reproduces
// sort.SliceStable's tie behavior, and group merging reproduces
// first-appearance order. The differential test suite pins this.
//
// The coordinator serves clients through the same HTTP front door as a
// node (internal/httpapi): it is one more backend behind it, supplying
// the scatter-gather query paths and the cluster's explain, tables,
// schema, stats and readiness bodies.
package cluster

import (
	"nodb"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/synopsis"
)

// SynopsisResponse is the /v1/cluster/synopsis body: every linked table's
// exported scan synopsis.
type SynopsisResponse struct {
	Tables map[string]TableSynopsis `json:"tables"`
}

// TableSynopsis is one table's wire-form synopsis export: the raw file's
// signature (so consumers can tell versions apart), the detected schema
// (so a coordinator can bind predicate names to column ordinals), and the
// per-portion zone maps. Portions is empty until the shard has learned a
// complete layout — pruning is an opportunistic optimization, never a
// requirement.
type TableSynopsis struct {
	Signature SignatureJSON `json:"signature"`
	Columns   []ColumnJSON  `json:"columns"`
	Portions  []PortionJSON `json:"portions,omitempty"`
}

// SignatureJSON mirrors catalog.Signature.
type SignatureJSON struct {
	Size    int64  `json:"size"`
	ModTime int64  `json:"mod_time"`
	Prefix  uint32 `json:"prefix"`
}

// ColumnJSON is one schema column.
type ColumnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// PortionJSON is one portion's layout slot and zone-map bounds.
type PortionJSON struct {
	Off      int64        `json:"off"`
	End      int64        `json:"end"`
	FirstRow int64        `json:"first_row"`
	Rows     int64        `json:"rows"`
	Cols     []BoundsJSON `json:"cols,omitempty"`
}

// BoundsJSON is one column's bounds within one portion. Numeric bounds
// round-trip exactly (encoding/json renders float64 shortest-round-trip);
// string bounds carry the prefix-exactness flags the pruning rules need.
type BoundsJSON struct {
	Col      int     `json:"col"`
	Type     string  `json:"type"`
	MinI     int64   `json:"min_i"`
	MaxI     int64   `json:"max_i"`
	MinF     float64 `json:"min_f"`
	MaxF     float64 `json:"max_f"`
	MinS     string  `json:"min_s"`
	MaxS     string  `json:"max_s"`
	MinExact bool    `json:"min_exact"`
	MaxExact bool    `json:"max_exact"`
}

// EncodeTableSynopsis converts a DB synopsis export plus the table's
// schema into wire form. Shard-side: the server's /v1/cluster/synopsis
// handler calls this per linked table.
func EncodeTableSynopsis(exp nodb.SynopsisExport, sch *schema.Schema) TableSynopsis {
	out := TableSynopsis{
		Signature: SignatureJSON{
			Size:    exp.Signature.Size,
			ModTime: exp.Signature.ModTime,
			Prefix:  exp.Signature.Prefix,
		},
	}
	for _, c := range sch.Columns {
		out.Columns = append(out.Columns, ColumnJSON{Name: c.Name, Type: c.Type.String()})
	}
	for _, p := range exp.Portions {
		pj := PortionJSON{
			Off:      p.Info.Off,
			End:      p.Info.End,
			FirstRow: p.Info.FirstRow,
			Rows:     p.Info.Rows,
		}
		for _, b := range p.Cols {
			pj.Cols = append(pj.Cols, BoundsJSON{
				Col: b.Col, Type: b.Typ.String(),
				MinI: b.MinI, MaxI: b.MaxI,
				MinF: b.MinF, MaxF: b.MaxF,
				MinS: b.MinS, MaxS: b.MaxS,
				MinExact: b.MinExact, MaxExact: b.MaxExact,
			})
		}
		out.Portions = append(out.Portions, pj)
	}
	return out
}

// parseType inverts schema.Type.String.
func parseType(s string) (schema.Type, bool) {
	switch s {
	case "int64":
		return schema.Int64, true
	case "float64":
		return schema.Float64, true
	case "string":
		return schema.String, true
	default:
		return 0, false
	}
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t TableSynopsis) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PortionStates reconstructs the synopsis export for pruning decisions.
// Unknown type strings (a newer shard?) void the reconstruction — nil
// means "cannot prune", which is always safe.
func (t TableSynopsis) PortionStates() []synopsis.PortionState {
	out := make([]synopsis.PortionState, 0, len(t.Portions))
	for i, p := range t.Portions {
		ps := synopsis.PortionState{Info: scan.PortionInfo{
			Index: i, Off: p.Off, End: p.End, FirstRow: p.FirstRow, Rows: p.Rows,
		}}
		for _, b := range p.Cols {
			typ, ok := parseType(b.Type)
			if !ok {
				return nil
			}
			ps.Cols = append(ps.Cols, synopsis.ColBounds{
				Col: b.Col, Typ: typ,
				MinI: b.MinI, MaxI: b.MaxI,
				MinF: b.MinF, MaxF: b.MaxF,
				MinS: b.MinS, MaxS: b.MaxS,
				MinExact: b.MinExact, MaxExact: b.MaxExact,
			})
		}
		out = append(out, ps)
	}
	return out
}
