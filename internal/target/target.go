// Package target defines the identity of a monitoring target — the unit the
// PowerAPI pipeline attributes power to. The paper's toolkit monitors OS
// processes, but the same pipeline generalizes to control groups of processes
// (containers, slices) and to the machine itself, so every layer of the
// middleware — sources, routers, messages, aggregation, reports — is keyed by
// a Target instead of a raw PID.
package target

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies what a Target identifies.
type Kind int

// Target kinds.
const (
	// KindProcess identifies one OS process by PID.
	KindProcess Kind = iota + 1
	// KindCgroup identifies a control group by its hierarchy path
	// ("web", "web/api", …). A cgroup's power is the power of its member
	// processes, descendants included.
	KindCgroup
	// KindMachine identifies the whole machine (machine-scope measurements).
	KindMachine
	// KindVM identifies a virtual machine by name: a cgroup subtree or PID
	// set designated as a VM on the host, whose power the host delegates to a
	// nested guest-side PowerAPI instance over the VM bridge.
	KindVM
	// KindNode identifies one machine of a fleet by node name — the unit the
	// fleet collector aggregates. A node's power is the total a daemon on that
	// machine estimated for itself; it exists only in the collector tier and
	// never appears inside a single host's pipeline.
	KindNode
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindProcess:
		return "process"
	case KindCgroup:
		return "cgroup"
	case KindMachine:
		return "machine"
	case KindVM:
		return "vm"
	case KindNode:
		return "node"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText implements encoding.TextMarshaler so kinds serialise as their
// names rather than opaque integers.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Target identifies one monitoring target. The zero value is invalid. Targets
// are comparable and usable as map keys: a process target is identified by
// its PID, a cgroup target by its hierarchy path.
type Target struct {
	// Kind tells which of the identifying fields is meaningful.
	Kind Kind `json:"kind"`
	// PID identifies process targets.
	PID int `json:"pid,omitempty"`
	// Path is the hierarchy path of cgroup targets ("web/api").
	Path string `json:"path,omitempty"`
	// Name is the name of VM targets ("vm-web").
	Name string `json:"name,omitempty"`
}

// Process returns the target identifying one OS process.
func Process(pid int) Target { return Target{Kind: KindProcess, PID: pid} }

// Cgroup returns the target identifying a control group by hierarchy path.
func Cgroup(path string) Target { return Target{Kind: KindCgroup, Path: path} }

// Machine returns the target identifying the whole machine.
func Machine() Target { return Target{Kind: KindMachine} }

// VM returns the target identifying a virtual machine by name.
func VM(name string) Target { return Target{Kind: KindVM, Name: name} }

// Node returns the target identifying one fleet machine by node name.
func Node(name string) Target { return Target{Kind: KindNode, Name: name} }

// Valid reports whether the target is well-formed.
func (t Target) Valid() bool {
	switch t.Kind {
	case KindProcess:
		return t.PID > 0 && t.Path == "" && t.Name == ""
	case KindCgroup:
		return t.Path != "" && t.PID == 0 && t.Name == ""
	case KindMachine:
		return t.PID == 0 && t.Path == "" && t.Name == ""
	case KindVM, KindNode:
		return t.Name != "" && t.PID == 0 && t.Path == ""
	default:
		return false
	}
}

// String implements fmt.Stringer ("pid:1000", "cgroup:web/api", "vm:vm-web",
// "machine").
func (t Target) String() string {
	switch t.Kind {
	case KindProcess:
		return fmt.Sprintf("pid:%d", t.PID)
	case KindCgroup:
		return "cgroup:" + t.Path
	case KindMachine:
		return "machine"
	case KindVM:
		return "vm:" + t.Name
	case KindNode:
		return "node:" + t.Name
	default:
		return fmt.Sprintf("target(%d)", int(t.Kind))
	}
}

// Parse resolves the string form produced by String back into a target:
// "pid:1000", "cgroup:web/api", "vm:vm-web" or "machine".
func Parse(s string) (Target, error) {
	switch {
	case s == "machine":
		return Machine(), nil
	case strings.HasPrefix(s, "pid:"):
		pid, err := strconv.Atoi(strings.TrimPrefix(s, "pid:"))
		if err != nil || pid <= 0 {
			return Target{}, fmt.Errorf("target: invalid pid in %q", s)
		}
		return Process(pid), nil
	case strings.HasPrefix(s, "cgroup:"):
		path := strings.TrimPrefix(s, "cgroup:")
		if path == "" {
			return Target{}, fmt.Errorf("target: empty cgroup path in %q", s)
		}
		return Cgroup(path), nil
	case strings.HasPrefix(s, "vm:"):
		name := strings.TrimPrefix(s, "vm:")
		if name == "" {
			return Target{}, fmt.Errorf("target: empty vm name in %q", s)
		}
		return VM(name), nil
	case strings.HasPrefix(s, "node:"):
		name := strings.TrimPrefix(s, "node:")
		if name == "" {
			return Target{}, fmt.Errorf("target: empty node name in %q", s)
		}
		return Node(name), nil
	default:
		return Target{}, fmt.Errorf("target: cannot parse %q (want \"pid:N\", \"cgroup:PATH\", \"vm:NAME\", \"node:NAME\" or \"machine\")", s)
	}
}
