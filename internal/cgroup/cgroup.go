// Package cgroup models a hierarchy of control groups over the simulated
// machine's processes, the way Linux cgroups group PIDs under nested paths
// ("web", "web/api"). The PowerAPI pipeline uses the hierarchy to monitor
// container-level targets: a cgroup's power is the power of its member
// processes, descendants included, so nested groups roll up to their parents
// and the per-target attribution stays conserved against the machine total.
//
// Membership follows the cgroup-v2 rule: a PID belongs to at most one group
// at a time (its leaf); adding it to another group moves it. Ancestors
// observe the PID through recursive membership, not through a second entry,
// which is what makes the aggregation double-count free.
package cgroup

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"powerapi/internal/target"
)

// Separator joins path segments of nested groups.
const Separator = "/"

// group is one node of the hierarchy.
type group struct {
	path     string
	children map[string]*group
	members  map[int]bool
}

// Hierarchy is a tree of control groups over process IDs. It is safe for
// concurrent use: the monitoring pipeline reads memberships from the
// aggregator goroutine while the driver mutates them between rounds.
type Hierarchy struct {
	mu     sync.RWMutex
	groups map[string]*group
	leaf   map[int]string // pid → the one group that directly holds it
	// gen counts the mutations that changed a group set or a membership;
	// view is the compiled snapshot of generation gen, built on first use
	// and dropped by the next such mutation.
	gen  uint64
	view *View
}

// NewHierarchy creates an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		groups: make(map[string]*group),
		leaf:   make(map[int]string),
	}
}

// changed records a mutation of the group set or of a membership: it starts
// a new generation and drops the compiled view of the old one. Callers hold
// h.mu for writing.
func (h *Hierarchy) changed() {
	h.gen++
	h.view = nil
}

// ValidatePath checks a hierarchy path: one or more "/"-separated segments of
// letters, digits, '.', '_' and '-'.
func ValidatePath(path string) error {
	if path == "" {
		return errors.New("cgroup: empty path")
	}
	for _, seg := range strings.Split(path, Separator) {
		if seg == "" {
			return fmt.Errorf("cgroup: path %q has an empty segment", path)
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("cgroup: path %q contains invalid character %q", path, r)
			}
		}
	}
	return nil
}

// Ancestors returns the proper ancestors of a path, outermost first
// ("web/api/v2" → ["web", "web/api"]).
func Ancestors(path string) []string {
	segs := strings.Split(path, Separator)
	if len(segs) <= 1 {
		return nil
	}
	out := make([]string, 0, len(segs)-1)
	for i := 1; i < len(segs); i++ {
		out = append(out, strings.Join(segs[:i], Separator))
	}
	return out
}

// InSubtree reports whether path is root itself or nested anywhere below it
// ("web/api" is in the "web" subtree; "webapp" is not).
func InSubtree(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+Separator)
}

// Create adds a group (and any missing ancestors) to the hierarchy. Creating
// an existing group is idempotent.
func (h *Hierarchy) Create(path string) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.create(path)
	return nil
}

func (h *Hierarchy) create(path string) *group {
	if g, ok := h.groups[path]; ok {
		return g
	}
	g := &group{path: path, children: make(map[string]*group), members: make(map[int]bool)}
	h.groups[path] = g
	h.changed()
	if anc := Ancestors(path); len(anc) > 0 {
		parent := h.create(anc[len(anc)-1])
		parent.children[path] = g
	}
	return g
}

// Delete removes a group. The group must be empty: no member PIDs (anywhere
// in its subtree) and no child groups.
func (h *Hierarchy) Delete(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[path]
	if !ok {
		return fmt.Errorf("cgroup: no such group %q", path)
	}
	if len(g.children) > 0 {
		return fmt.Errorf("cgroup: group %q still has child groups", path)
	}
	if len(g.members) > 0 {
		return fmt.Errorf("cgroup: group %q still has member processes", path)
	}
	delete(h.groups, path)
	if anc := Ancestors(path); len(anc) > 0 {
		if parent, ok := h.groups[anc[len(anc)-1]]; ok {
			delete(parent.children, path)
		}
	}
	h.changed()
	return nil
}

// Exists reports whether a group is part of the hierarchy.
func (h *Hierarchy) Exists(path string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, ok := h.groups[path]
	return ok
}

// Add places a PID in a group, creating the group if needed. A PID lives in
// exactly one group at a time: adding it to a second group moves it there,
// mirroring a write to cgroup.procs.
func (h *Hierarchy) Add(path string, pid int) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	if pid <= 0 {
		return fmt.Errorf("cgroup: invalid pid %d", pid)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.leaf[pid]; ok {
		if prev == path {
			return nil
		}
		delete(h.groups[prev].members, pid)
	}
	h.create(path).members[pid] = true
	h.leaf[pid] = path
	h.changed()
	return nil
}

// Leave removes a PID from the hierarchy entirely.
func (h *Hierarchy) Leave(pid int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	path, ok := h.leaf[pid]
	if !ok {
		return fmt.Errorf("cgroup: pid %d is not in any group", pid)
	}
	delete(h.groups[path].members, pid)
	delete(h.leaf, pid)
	h.changed()
	return nil
}

// LeafOf returns the group that directly holds a PID.
func (h *Hierarchy) LeafOf(pid int) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	path, ok := h.leaf[pid]
	return path, ok
}

// Members returns the PIDs held directly by a group, sorted.
func (h *Hierarchy) Members(path string) []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.groups[path]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(g.members))
	for pid := range g.members {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// MembersRecursive returns the PIDs of a group's whole subtree, sorted — the
// membership a container runtime reports for a slice.
func (h *Hierarchy) MembersRecursive(path string) []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.groups[path]
	if !ok {
		return nil
	}
	return appendRecursive(nil, g)
}

// appendRecursive appends the PIDs of g's whole subtree to dst, sorted among
// themselves, and returns the extended slice. It is the one walk behind both
// MembersRecursive and the compiled View.
func appendRecursive(dst []int, g *group) []int {
	start := len(dst)
	var walk func(*group)
	walk = func(g *group) {
		for pid := range g.members {
			dst = append(dst, pid)
		}
		for _, child := range g.children {
			walk(child)
		}
	}
	walk(g)
	sort.Ints(dst[start:])
	return dst
}

// Paths returns every group path, sorted; parents precede their children.
func (h *Hierarchy) Paths() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sortedPaths()
}

// sortedPaths returns every group path, sorted. Callers hold h.mu.
func (h *Hierarchy) sortedPaths() []string {
	out := make([]string, 0, len(h.groups))
	for path := range h.groups {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// Generation returns a counter that moves whenever a group is created or
// deleted or a PID joins, moves or leaves a group (Prune included). While it
// stays put the memberships are unchanged, so a reader can skip work that
// depends only on them.
func (h *Hierarchy) Generation() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.gen
}

// View is an immutable snapshot of a hierarchy's memberships: every group
// path in Paths order, each with its recursive members in PID order, stored
// as one flat PID slice plus offsets. The hierarchy compiles one per
// generation, so per-round readers walk flat slices instead of the tree.
type View struct {
	paths   []string
	offsets []int // group i's members are pids[offsets[i]:offsets[i+1]]
	pids    []int
}

// View returns the compiled membership snapshot of the current generation,
// building it on the first call after a change. The view is shared and must
// not be modified.
func (h *Hierarchy) View() *View {
	h.mu.RLock()
	v := h.view
	h.mu.RUnlock()
	if v != nil {
		return v
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.view == nil {
		h.view = h.compile()
	}
	return h.view
}

// compile builds the view of the current generation. Callers hold h.mu for
// writing.
func (h *Hierarchy) compile() *View {
	paths := h.sortedPaths()
	v := &View{paths: paths, offsets: make([]int, len(paths)+1)}
	for i, path := range paths {
		v.pids = appendRecursive(v.pids, h.groups[path])
		v.offsets[i+1] = len(v.pids)
	}
	return v
}

// Len returns the number of groups.
func (v *View) Len() int { return len(v.paths) }

// Path returns the path of group i, in Paths order.
func (v *View) Path(i int) string { return v.paths[i] }

// Members returns the recursive members of group i, sorted — what
// MembersRecursive returned for its path at the view's generation. The slice
// aliases the view.
func (v *View) Members(i int) []int { return v.pids[v.offsets[i]:v.offsets[i+1]] }

// MembersOf returns the recursive members of the group at path (nil if the
// view has no such group).
func (v *View) MembersOf(path string) []int {
	i := sort.SearchStrings(v.paths, path)
	if i == len(v.paths) || v.paths[i] != path {
		return nil
	}
	return v.Members(i)
}

// Targets returns one cgroup target per group, in Paths order.
func (h *Hierarchy) Targets() []target.Target {
	paths := h.Paths()
	out := make([]target.Target, 0, len(paths))
	for _, path := range paths {
		out = append(out, target.Cgroup(path))
	}
	return out
}

// Len returns the number of groups.
func (h *Hierarchy) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.groups)
}

// Prune removes every member PID for which alive returns false — the
// lifecycle step dropping processes that exited — and returns the removed
// PIDs, sorted. Groups stay in place even when emptied, like a cgroup
// directory outliving its tasks.
func (h *Hierarchy) Prune(alive func(pid int) bool) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var removed []int
	for pid, path := range h.leaf {
		if alive(pid) {
			continue
		}
		delete(h.groups[path].members, pid)
		delete(h.leaf, pid)
		removed = append(removed, pid)
	}
	if len(removed) > 0 {
		h.changed()
	}
	sort.Ints(removed)
	return removed
}

// Spec is a parsed -cgroups style specification: group path → member ids in
// declaration order.
type Spec struct {
	// Paths lists the group paths in declaration order.
	Paths []string
	// Members maps each path to its declared member ids.
	Members map[string][]int
}

// ParseSpec parses a specification like "web=1,2,3;db=4" (nested paths such
// as "web/api=1,2" are allowed; "db=" declares an empty group). The member
// numbers are opaque ids the caller maps to PIDs — the daemon uses 1-based
// workload indices.
func ParseSpec(spec string) (*Spec, error) {
	out := &Spec{Members: make(map[string][]int)}
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("cgroup: empty spec")
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		path, list, found := strings.Cut(entry, "=")
		if !found {
			return nil, fmt.Errorf("cgroup: spec entry %q is not path=members", entry)
		}
		path = strings.TrimSpace(path)
		if err := ValidatePath(path); err != nil {
			return nil, err
		}
		if _, dup := out.Members[path]; dup {
			return nil, fmt.Errorf("cgroup: group %q declared twice", path)
		}
		var members []int
		for _, field := range strings.Split(list, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			id, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("cgroup: member %q of group %q is not a number", field, path)
			}
			members = append(members, id)
		}
		out.Paths = append(out.Paths, path)
		out.Members[path] = members
	}
	if len(out.Paths) == 0 {
		return nil, errors.New("cgroup: empty spec")
	}
	return out, nil
}

// Build materialises a parsed spec into a hierarchy. mapID translates the
// spec's member ids to PIDs (pass the identity to use raw PIDs). A member
// declared in two different groups is a contradiction — Add's move semantics
// would silently relocate it to the later group — so Build rejects it.
func (s *Spec) Build(mapID func(id int) (int, error)) (*Hierarchy, error) {
	h := NewHierarchy()
	owner := make(map[int]string)
	for _, path := range s.Paths {
		if err := h.Create(path); err != nil {
			return nil, err
		}
		for _, id := range s.Members[path] {
			if prev, dup := owner[id]; dup {
				return nil, fmt.Errorf("cgroup: member %d declared in both %q and %q", id, prev, path)
			}
			owner[id] = path
			pid := id
			if mapID != nil {
				mapped, err := mapID(id)
				if err != nil {
					return nil, fmt.Errorf("cgroup: group %q: %w", path, err)
				}
				pid = mapped
			}
			if err := h.Add(path, pid); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}
