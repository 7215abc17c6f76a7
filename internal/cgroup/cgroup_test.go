package cgroup

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"powerapi/internal/target"
)

func TestValidatePath(t *testing.T) {
	for _, ok := range []string{"web", "web/api", "web/api/v2", "a-b_c.9"} {
		if err := ValidatePath(ok); err != nil {
			t.Fatalf("ValidatePath(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "/web", "web/", "web//api", "web api", "web;db"} {
		if err := ValidatePath(bad); err == nil {
			t.Fatalf("ValidatePath(%q) should fail", bad)
		}
	}
}

func TestAncestors(t *testing.T) {
	if got := Ancestors("web"); got != nil {
		t.Fatalf("Ancestors(web) = %v, want nil", got)
	}
	if got := Ancestors("web/api/v2"); !reflect.DeepEqual(got, []string{"web", "web/api"}) {
		t.Fatalf("Ancestors(web/api/v2) = %v", got)
	}
}

func TestCreateBuildsMissingAncestors(t *testing.T) {
	h := NewHierarchy()
	if err := h.Create("web/api/v2"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"web", "web/api", "web/api/v2"} {
		if !h.Exists(path) {
			t.Fatalf("missing ancestor %q", path)
		}
	}
	if err := h.Create("web/api/v2"); err != nil {
		t.Fatalf("creating twice should be idempotent: %v", err)
	}
	if h.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", h.Len())
	}
	if err := h.Create("web//api"); err == nil {
		t.Fatal("invalid path should fail")
	}
}

func TestAddMovesBetweenLeaves(t *testing.T) {
	h := NewHierarchy()
	if err := h.Add("web", 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("web", 1); err != nil {
		t.Fatalf("re-adding to the same group should be idempotent: %v", err)
	}
	if leaf, ok := h.LeafOf(1); !ok || leaf != "web" {
		t.Fatalf("LeafOf(1) = %q, %v", leaf, ok)
	}
	// The cgroup-v2 rule: adding a PID to another group moves it.
	if err := h.Add("db", 1); err != nil {
		t.Fatal(err)
	}
	if got := h.Members("web"); len(got) != 0 {
		t.Fatalf("pid 1 still a member of web: %v", got)
	}
	if got := h.Members("db"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Members(db) = %v", got)
	}
	if err := h.Add("web", 0); err == nil {
		t.Fatal("non-positive pid should fail")
	}
}

func TestMembersRecursive(t *testing.T) {
	h := NewHierarchy()
	for pid, path := range map[int]string{1: "web", 2: "web", 3: "web/api", 4: "web/api/v2", 5: "db"} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.MembersRecursive("web"); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("MembersRecursive(web) = %v", got)
	}
	if got := h.MembersRecursive("web/api"); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("MembersRecursive(web/api) = %v", got)
	}
	if got := h.MembersRecursive("nope"); got != nil {
		t.Fatalf("MembersRecursive(nope) = %v", got)
	}
	if got := h.Paths(); !reflect.DeepEqual(got, []string{"db", "web", "web/api", "web/api/v2"}) {
		t.Fatalf("Paths() = %v", got)
	}
	targets := h.Targets()
	if len(targets) != 4 || targets[1] != target.Cgroup("web") {
		t.Fatalf("Targets() = %v", targets)
	}
}

func TestLeaveAndPrune(t *testing.T) {
	h := NewHierarchy()
	for pid, path := range map[int]string{1: "web", 2: "web", 3: "web/api"} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Leave(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Leave(2); err == nil {
		t.Fatal("leaving twice should fail")
	}
	removed := h.Prune(func(pid int) bool { return pid != 3 })
	if !reflect.DeepEqual(removed, []int{3}) {
		t.Fatalf("Prune removed %v, want [3]", removed)
	}
	// Groups outlive their tasks, like a cgroup directory.
	if !h.Exists("web/api") {
		t.Fatal("emptied group should still exist")
	}
	if got := h.MembersRecursive("web"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("MembersRecursive(web) = %v", got)
	}
}

func TestDelete(t *testing.T) {
	h := NewHierarchy()
	if err := h.Add("web/api", 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("web"); err == nil {
		t.Fatal("deleting a group with children should fail")
	}
	if err := h.Delete("web/api"); err == nil {
		t.Fatal("deleting a group with members should fail")
	}
	if err := h.Leave(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("web/api"); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("web"); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("web"); err == nil {
		t.Fatal("deleting an unknown group should fail")
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("web=1,2; web/api = 3 ;db=4;cache=")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"web", "web/api", "db", "cache"}) {
		t.Fatalf("Paths = %v", spec.Paths)
	}
	if !reflect.DeepEqual(spec.Members["web"], []int{1, 2}) || len(spec.Members["cache"]) != 0 {
		t.Fatalf("Members = %v", spec.Members)
	}
	for _, bad := range []string{"", "  ", ";;", "web", "web=1;web=2", "web=x", "w eb=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestSpecBuild(t *testing.T) {
	spec, err := ParseSpec("web=1,2;web/api=3")
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Build(func(id int) (int, error) { return 1000 + id, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := h.MembersRecursive("web"); !reflect.DeepEqual(got, []int{1001, 1002, 1003}) {
		t.Fatalf("MembersRecursive(web) = %v", got)
	}
	// The identity mapping uses raw ids as PIDs.
	h2, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Members("web"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("identity Members(web) = %v", got)
	}
	// Mapping failures surface with the group context.
	if _, err := spec.Build(func(int) (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("mapping error should fail the build")
	}
	// A member declared in two groups is a contradiction, not a silent move.
	contradiction, err := ParseSpec("web=1,2;db=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := contradiction.Build(nil); err == nil {
		t.Fatal("member declared in two groups should fail the build")
	}
}

// TestGenerationMovesOnEveryChange pins which calls start a new generation:
// every change of the group set or of a membership, and nothing else.
func TestGenerationMovesOnEveryChange(t *testing.T) {
	h := NewHierarchy()
	step := func(name string, moves bool, op func() error) {
		t.Helper()
		before := h.Generation()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if moved := h.Generation() != before; moved != moves {
			t.Fatalf("%s: generation moved = %v, want %v", name, moved, moves)
		}
	}
	step("create", true, func() error { return h.Create("web/api") })
	step("create existing", false, func() error { return h.Create("web/api") })
	step("add", true, func() error { return h.Add("web", 1) })
	step("add again", false, func() error { return h.Add("web", 1) })
	step("move", true, func() error { return h.Add("web/api", 1) })
	step("add to a new group", true, func() error { return h.Add("db", 2) })
	step("leave", true, func() error { return h.Leave(2) })
	step("delete", true, func() error { return h.Delete("db") })
	step("prune nothing", false, func() error {
		h.Prune(func(int) bool { return true })
		return nil
	})
	step("prune", true, func() error {
		h.Prune(func(int) bool { return false })
		return nil
	})
	step("reads", false, func() error {
		h.Paths()
		h.MembersRecursive("web")
		h.View()
		return nil
	})
	before := h.Generation()
	if err := h.Delete("nope"); err == nil {
		t.Fatal("deleting a missing group should fail")
	}
	if err := h.Leave(42); err == nil {
		t.Fatal("leaving without a group should fail")
	}
	if h.Generation() != before {
		t.Fatal("failed mutations moved the generation")
	}
}

// TestViewMatchesTree checks the compiled view against Paths and
// MembersRecursive, and that it is reused until the next change.
func TestViewMatchesTree(t *testing.T) {
	h := NewHierarchy()
	for pid, path := range map[int]string{5: "web", 3: "web/api", 9: "web/api/v2", 1: "db", 7: "web/api"} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Create("empty"); err != nil {
		t.Fatal(err)
	}
	check := func() *View {
		t.Helper()
		v := h.View()
		paths := h.Paths()
		if v.Len() != len(paths) {
			t.Fatalf("view has %d groups, Paths %d", v.Len(), len(paths))
		}
		for i, path := range paths {
			if v.Path(i) != path {
				t.Fatalf("view path %d = %q, want %q", i, v.Path(i), path)
			}
			want := h.MembersRecursive(path)
			if got := v.Members(i); !slices.Equal(got, want) {
				t.Fatalf("view members of %q = %v, want %v", path, got, want)
			}
			if got := v.MembersOf(path); !slices.Equal(got, want) {
				t.Fatalf("MembersOf(%q) = %v, want %v", path, got, want)
			}
		}
		if got := v.MembersOf("missing"); got != nil {
			t.Fatalf("MembersOf(missing) = %v, want nil", got)
		}
		return v
	}
	v1 := check()
	if got := v1.MembersOf("web"); !reflect.DeepEqual(got, []int{3, 5, 7, 9}) {
		t.Fatalf("MembersOf(web) = %v", got)
	}
	if h.View() != v1 {
		t.Fatal("unchanged hierarchy compiled a second view")
	}
	if err := h.Add("db", 9); err != nil {
		t.Fatal(err)
	}
	v2 := check()
	if v2 == v1 {
		t.Fatal("a move kept the stale view")
	}
	if got := v1.MembersOf("web"); !reflect.DeepEqual(got, []int{3, 5, 7, 9}) {
		t.Fatalf("an old view changed under its reader: %v", got)
	}
}
