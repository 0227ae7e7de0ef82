package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzDispatch: whatever line a client sends, the dispatcher must not let a
// panic escape, and every command — known, unknown or malformed — gets a
// non-empty, newline-terminated reply (only an empty line is answered with
// silence). The line is split the way handle splits it.
func FuzzDispatch(f *testing.F) {
	for _, line := range []string{
		"STATS", "stats", "RULES", "LABELS", "METRICS", "QUIT", "",
		"QUERY", "QUERY dns && dns.qtype == ANY", "QUERY proto == udp && dst.port == 53",
		"QUERY ((((", "QUERY len > ", "QUERY ts >= 0 && ts < 1s", "query label == dns-amp",
		"BOGUS", "STATS extra args", "\x00\xff", "QUERY \"", "  STATS  ", "QUERY src.ip in 10.0.0.0/33",
	} {
		f.Add(line)
	}
	srv := sharedServer(f)
	f.Fuzz(func(t *testing.T, line string) {
		cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		srv.dispatch(w, strings.ToUpper(cmd), rest)
		w.Flush()
		switch reply := out.String(); {
		case cmd == "":
			if reply != "" {
				t.Fatalf("empty command answered %q", reply)
			}
		case reply == "" || !strings.HasSuffix(reply, "\n"):
			t.Fatalf("command %q: reply %q is not a newline-terminated line", cmd, reply)
		}
	})
}
