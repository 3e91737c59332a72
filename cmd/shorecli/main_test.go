package main

import (
	"strings"
	"testing"
)

// TestRunRejectsNonPositiveRPCTimeout: the client side of the RPC
// discipline derives its retry schedule from -rpc-timeout, so zero and
// negative values are usage errors, not "wait forever".
func TestRunRejectsNonPositiveRPCTimeout(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		err := run([]string{"-addr", "127.0.0.1:1", "-rpc-timeout", v})
		if err == nil || !strings.Contains(err.Error(), "-rpc-timeout") {
			t.Errorf("run(-rpc-timeout %s) = %v, want an error naming -rpc-timeout", v, err)
		}
	}
}
