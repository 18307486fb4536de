package lagrange

// DualSite is the portable form of one multiplier: the index whose
// block-wide linking multiplier it is, plus its value. Index is the
// candidate position in the exporting model's numbering; consumers that
// persist dual state across candidate renumbering remap it with
// Multipliers.Remap.
type DualSite struct {
	Index int32   `json:"index"`
	Value float64 `json:"value"`
}

// DualBlock is the portable form of one block's multipliers, carrying
// the block label (the statement's stable ID) that lets a later solve
// adopt them across workload deltas.
type DualBlock struct {
	ID    string     `json:"id,omitempty"`
	Sites []DualSite `json:"sites"`
}

// Export renders the dual state in its portable form — the
// serialization boundary of the daemon's durability layer. A nil
// receiver exports nil.
func (m *Multipliers) Export() []DualBlock {
	if m == nil {
		return nil
	}
	out := make([]DualBlock, len(m.idx))
	for bi := range m.idx {
		b := DualBlock{Sites: make([]DualSite, len(m.idx[bi]))}
		if m.ids != nil {
			b.ID = m.ids[bi]
		}
		for k, a := range m.idx[bi] {
			b.Sites[k] = DualSite{Index: a, Value: m.vals[bi][k]}
		}
		out[bi] = b
	}
	return out
}

// ImportDual rebuilds a warm-start Multipliers from its portable form.
// Labeled blocks (any non-empty ID) restore label matching; a fully
// unlabeled export restores positional matching, mirroring the solver's
// own export. Empty input imports as nil (a cold start).
func ImportDual(blocks []DualBlock) *Multipliers {
	if len(blocks) == 0 {
		return nil
	}
	m := &Multipliers{
		ids:  make([]string, len(blocks)),
		idx:  make([][]int32, len(blocks)),
		vals: make([][]float64, len(blocks)),
	}
	labeled := false
	for bi, b := range blocks {
		m.ids[bi] = b.ID
		if b.ID != "" {
			labeled = true
		}
		idx := make([]int32, len(b.Sites))
		vals := make([]float64, len(b.Sites))
		for k, site := range b.Sites {
			idx[k], vals[k] = site.Index, site.Value
		}
		m.idx[bi], m.vals[bi] = idx, vals
	}
	if !labeled {
		m.ids = nil
	}
	return m
}

// Remap translates the dual state through a candidate renumbering:
// perm[old] is the new position of candidate old, or a negative value
// when the candidate was dropped — its multipliers are discarded.
// Positions beyond perm are likewise dropped. Block labels are
// preserved, so a compacted session still matches blocks across
// workload deltas. The receiver is unchanged; a nil receiver remaps to
// nil.
func (m *Multipliers) Remap(perm []int32) *Multipliers {
	if m == nil {
		return nil
	}
	out := &Multipliers{
		idx:  make([][]int32, len(m.idx)),
		vals: make([][]float64, len(m.idx)),
	}
	if m.ids != nil {
		out.ids = append([]string(nil), m.ids...)
	}
	for bi := range m.idx {
		idx := make([]int32, 0, len(m.idx[bi]))
		vals := make([]float64, 0, len(m.idx[bi]))
		for k, a := range m.idx[bi] {
			if a < 0 || int(a) >= len(perm) || perm[a] < 0 {
				continue
			}
			idx = append(idx, perm[a])
			vals = append(vals, m.vals[bi][k])
		}
		out.idx[bi], out.vals[bi] = idx, vals
	}
	return out
}
