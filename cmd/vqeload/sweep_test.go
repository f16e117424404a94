package main

import (
	"strings"
	"testing"

	"repro/internal/load"
)

// TestAssertPrefixOrder: -assert-order accepts a view whose done points
// are the lowest axis values, in whatever order the points were
// submitted, and rejects a done point above a not-done one or any failed
// point.
func TestAssertPrefixOrder(t *testing.T) {
	// Submission order runs down the axis: point 0 is the highest value.
	view := func(failed int, status ...string) *load.SweepView {
		v := &load.SweepView{ID: "sw-1", Points: len(status), Failed: failed}
		for i, s := range status {
			v.PointStates = append(v.PointStates, load.SweepPointView{
				Point:  i,
				Value:  0.1 * float64(len(status)-i),
				Status: s,
			})
		}
		return v
	}
	for _, tc := range []struct {
		name    string
		view    *load.SweepView
		wantErr string
	}{
		{"value-ordered prefix, descending submission", view(0, "queued", "running", "done", "done"), ""},
		{"done after not done", view(0, "done", "queued", "done", "done"), "point 0 (value 0.4) done out of order"},
		{"failed point", view(1, "queued", "queued", "failed", "done"), "1 point(s) failed"},
		{"all done", view(0, "done", "done", "done", "done"), ""},
	} {
		err := assertPrefixOrder(tc.view)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
