package detect

import (
	"sort"

	"selfheal/internal/stats"
)

// CallMatrixDetector implements the paper's Example 2: it learns a baseline
// of how calls from each component are split across EJB types over a long
// window Nb, then tests short current windows Nc against it with a χ² test.
// A significant deviation implicates a component; "a likely fix is to
// microreboot the EJB".
//
// Rows of the matrix are callers (request classes followed by EJBs), columns
// are callee EJBs.
type CallMatrixDetector struct {
	rows, cols int
	baseline   [][]float64
	baseTicks  int64
	current    [][]float64
	curTicks   int64
	// Alpha is the χ² significance level for declaring a row anomalous.
	Alpha float64
	// MinRowCalls skips rows with too little traffic to test.
	MinRowCalls float64
}

// NewCallMatrixDetector builds a detector for a rows×cols call matrix.
func NewCallMatrixDetector(rows, cols int) *CallMatrixDetector {
	d := &CallMatrixDetector{rows: rows, cols: cols, Alpha: 0.001, MinRowCalls: 50}
	d.baseline = zeroMatrix(rows, cols)
	d.current = zeroMatrix(rows, cols)
	return d
}

func zeroMatrix(r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
	}
	return m
}

// AccumulateBaselineCells folds one healthy tick into the baseline (the Nb
// window) given the matrix's support: vals[i] is the value at cells[i],
// every other cell is zero. A target's call topology is static and ~90%
// empty, so the harness folds the cells that can be nonzero instead of the
// dense matrix.
func (d *CallMatrixDetector) AccumulateBaselineCells(cells [][2]int, vals []float64) {
	for i, rc := range cells {
		d.baseline[rc[0]][rc[1]] += vals[i]
	}
	d.baseTicks++
}

// AccumulateCurrentCells folds one tick into the current window (the Nc
// window) over a support cell list.
func (d *CallMatrixDetector) AccumulateCurrentCells(cells [][2]int, vals []float64) {
	for i, rc := range cells {
		d.current[rc[0]][rc[1]] += vals[i]
	}
	d.curTicks++
}

// ResetCurrent clears the current window.
func (d *CallMatrixDetector) ResetCurrent() {
	d.current = zeroMatrix(d.rows, d.cols)
	d.curTicks = 0
}

// Anomaly is one implicated callee EJB column with its aggregate score.
type Anomaly struct {
	// Col is the callee column index (see Target.CallCallees for names).
	Col int
	// Score is the accumulated positive χ² over-representation.
	Score float64
}

// AnomalousCallees runs the per-row χ² tests and aggregates the deviation
// onto callee columns: for every row whose call split deviates
// significantly from baseline, each column accumulates its positive
// over-representation. The result is sorted by descending score; the top
// entry is the component to microreboot.
func (d *CallMatrixDetector) AnomalousCallees() []Anomaly {
	if d.baseTicks == 0 || d.curTicks == 0 {
		return nil
	}
	colScore := make([]float64, d.cols)
	anyRow := false
	for r := 0; r < d.rows; r++ {
		baseRow := d.baseline[r]
		curRow := d.current[r]
		baseTotal := stats.Sum(baseRow)
		curTotal := stats.Sum(curRow)
		if curTotal < d.MinRowCalls || baseTotal < d.MinRowCalls {
			// A row that used to have traffic and now has none is itself
			// anomalous (a deadlocked caller stops calling downstream):
			// attribute the deficit to the row's former callees is not
			// possible column-wise, so skip — the over-representation in
			// class rows carries the signal instead.
			continue
		}
		expected := make([]float64, d.cols)
		for c := 0; c < d.cols; c++ {
			expected[c] = baseRow[c] / baseTotal * curTotal
		}
		chi2, p := stats.ChiSquare(curRow, expected)
		_ = chi2
		if p >= d.Alpha {
			continue
		}
		anyRow = true
		for c := 0; c < d.cols; c++ {
			if dev := curRow[c] - expected[c]; dev > 0 {
				// Normalize by expected so hot columns don't win by volume.
				e := expected[c]
				if e < 1 {
					e = 1
				}
				colScore[c] += dev * dev / e
			}
		}
	}
	if !anyRow {
		return nil
	}
	out := make([]Anomaly, 0, d.cols)
	for c, s := range colScore {
		if s > 0 {
			out = append(out, Anomaly{Col: c, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}
