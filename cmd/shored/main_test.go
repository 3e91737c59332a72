package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: every malformed deployment flag must fail run
// before a listener is bound, with a message naming the flag. A zero or
// negative -rpc-timeout in particular must not start a server: every
// deadline of the RPC discipline (retry, callback stall, in-doubt
// resolution) derives from it.
func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-rpc-timeout", "0"}, "-rpc-timeout"},
		{[]string{"-rpc-timeout", "-1s"}, "-rpc-timeout"},
		{[]string{"-shard", "3/2"}, "-shard"},
		{[]string{"-shard", "one/two"}, "-shard"},
		{[]string{"-shard", "1/2", "-pages", "1"}, "-shard"},
		{[]string{"-peers", "srv2"}, "-peers"},
		{[]string{"-peers", "srv2=127.0.0.1:1,=127.0.0.1:2"}, "-peers"},
		{[]string{"-protocol", "bogus"}, "bogus"},
	}
	for _, tt := range tests {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, tt.args...))
		if err == nil {
			t.Errorf("run(%v) started a server", tt.args)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%v) = %q, want it to name %q", tt.args, err, tt.want)
		}
	}
}
