package main

import (
	"testing"

	"repro/internal/core"
)

func TestScaleByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		want    core.ExperimentScale
		wantErr bool
	}{
		{"small", core.SmallScale(), false},
		{"paper", core.PaperScale(), false},
		{"papr", core.ExperimentScale{}, true},
	} {
		got, err := scaleByName(tc.name)
		if (err != nil) != tc.wantErr {
			t.Errorf("scaleByName(%q) error = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if got != tc.want {
			t.Errorf("scaleByName(%q) = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
