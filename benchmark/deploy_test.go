package main

import (
	"testing"
	"time"
)

const sampleShutdown = `shored: PS-AA serving volume 1 (1200 pages, 20 objs/page) on 127.0.0.1:39041 as "srv"
shored: terminated — draining in-flight work
shored: prepared-undecided transactions: 0
shored: final counters:
  2pc_prepares             12
  commits                  0
  messages                 4242
  tcp_conns                6
`

func TestParseShutdownReport(t *testing.T) {
	counters, undecided, err := parseShutdownReport(sampleShutdown)
	if err != nil {
		t.Fatal(err)
	}
	if undecided != 0 {
		t.Errorf("undecided = %d", undecided)
	}
	want := map[string]int64{"2pc_prepares": 12, "commits": 0, "messages": 4242, "tcp_conns": 6}
	if len(counters) != len(want) {
		t.Errorf("counters = %v", counters)
	}
	for k, v := range want {
		if counters[k] != v {
			t.Errorf("%s = %d, want %d", k, counters[k], v)
		}
	}
}

func TestParseShutdownReportRejectsDamage(t *testing.T) {
	for name, out := range map[string]string{
		"killed before the report": "shored: PS-AA serving volume 1\n",
		"no counters block":        "shored: prepared-undecided transactions: 0\n",
		"no undecided line":        "shored: final counters:\n  commits 1\n",
		"garbled counter":          "shored: prepared-undecided transactions: 0\nshored: final counters:\n  commits one\n",
		"garbled undecided":        "shored: prepared-undecided transactions: none\nshored: final counters:\n",
	} {
		if _, _, err := parseShutdownReport(out); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	_, undecided, err := parseShutdownReport("shored: prepared-undecided transactions: 3\nshored: final counters:\n")
	if err != nil || undecided != 3 {
		t.Errorf("in-doubt residue: undecided=%d err=%v", undecided, err)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := "4242 (sho red) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 37 5 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 420 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("no error on garbage")
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("no error on a short line")
	}
}
