package main

import (
	"testing"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/core"
	"adaptivecc/internal/workload"
)

func TestParseProtocol(t *testing.T) {
	tests := []struct {
		in      string
		want    core.Protocol
		wantErr bool
	}{
		{"PS", core.PS, false},
		{"ps", core.PS, false},
		{"PS-OO", core.PSOO, false},
		{"psoo", core.PSOO, false},
		{"PS_OA", core.PSOA, false},
		{"PS-AA", core.PSAA, false},
		{"psaa", core.PSAA, false},
		{"OS", core.OS, false},
		{"bogus", 0, true},
	}
	for _, tt := range tests {
		got, err := consistency.Parse(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("consistency.Parse(%q) accepted", tt.in)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("consistency.Parse(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
}

func TestParseWorkload(t *testing.T) {
	tests := []struct {
		in      string
		want    workload.Kind
		wantErr bool
	}{
		{"HOTCOLD", workload.HotCold, false},
		{"hotcold", workload.HotCold, false},
		{"UNIFORM", workload.Uniform, false},
		{"HICON", workload.HiCon, false},
		{"PRIVATE", workload.Private, false},
		{"HotSpot", workload.HotSpot, false},
		{"nope", 0, true},
	}
	for _, tt := range tests {
		got, err := workload.ParseKind(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("workload.ParseKind(%q) accepted", tt.in)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("workload.ParseKind(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-proto", "bogus"}); err == nil {
		t.Error("bad protocol accepted")
	}
	if err := run([]string{"-workload", "bogus"}); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestLocalityLabel(t *testing.T) {
	if locality(true) == locality(false) {
		t.Error("locality labels identical")
	}
}
