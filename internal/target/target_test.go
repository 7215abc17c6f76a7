package target

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestConstructorsAndValidity(t *testing.T) {
	cases := []struct {
		target Target
		valid  bool
		str    string
	}{
		{Process(1000), true, "pid:1000"},
		{Cgroup("web/api"), true, "cgroup:web/api"},
		{Machine(), true, "machine"},
		{Target{}, false, ""},
		{Process(0), false, ""},
		{Process(-1), false, ""},
		{Cgroup(""), false, ""},
		{Target{Kind: KindProcess, PID: 1, Path: "web"}, false, ""},
		{Target{Kind: KindCgroup, PID: 1, Path: "web"}, false, ""},
		{Target{Kind: KindMachine, PID: 1}, false, ""},
	}
	for _, c := range cases {
		if got := c.target.Valid(); got != c.valid {
			t.Fatalf("%+v Valid() = %v, want %v", c.target, got, c.valid)
		}
		if c.str != "" && c.target.String() != c.str {
			t.Fatalf("%+v String() = %q, want %q", c.target, c.target.String(), c.str)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindProcess.String() != "process" || KindCgroup.String() != "cgroup" || KindMachine.String() != "machine" {
		t.Fatal("kind names broken")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatalf("unknown kind String() = %q", Kind(99).String())
	}
	out, err := json.Marshal(KindCgroup)
	if err != nil || string(out) != `"cgroup"` {
		t.Fatalf("kind marshals to %s, %v", out, err)
	}
}

func TestTargetsAreMapKeys(t *testing.T) {
	m := map[Target]int{
		Process(7):    1,
		Cgroup("web"): 2,
		Machine():     3,
	}
	if m[Process(7)] != 1 || m[Cgroup("web")] != 2 || m[Machine()] != 3 {
		t.Fatal("targets must be usable as map keys")
	}
}

func TestJSONMarshal(t *testing.T) {
	out, err := json.Marshal(Cgroup("web/api"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.Contains(s, `"kind":"cgroup"`) || !strings.Contains(s, `"path":"web/api"`) {
		t.Fatalf("cgroup target marshals to %s", s)
	}
	if strings.Contains(s, "pid") {
		t.Fatalf("cgroup target should omit the pid field: %s", s)
	}
}
