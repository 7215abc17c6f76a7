package main

import (
	"testing"
	"time"

	"powerapi/internal/vmbridge"
)

func TestRunRejectsBadVMBridgeFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"publish without vms", []string{"-vm-publish", "127.0.0.1:0"}},
		{"publish and delegate", []string{"-vms", "vma=1", "-vm-publish", "127.0.0.1:0", "-vm-delegate", "127.0.0.1:1"}},
		{"delegate without name", []string{"-vm-delegate", "127.0.0.1:1"}},
		{"delegate with source", []string{"-vm-delegate", "127.0.0.1:1", "-vm-name", "vma", "-source", "blended"}},
		{"bad stale policy", []string{"-vm-delegate", "127.0.0.1:1", "-vm-name", "vma", "-vm-stale", "freeze"}},
		{"malformed vms spec", []string{"-vms", "vma"}},
		{"nested vm name", []string{"-vms", "vma/inner=1", "-duration", "1s", "-interval", "1s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil {
				t.Fatalf("args %v should fail", tc.args)
			}
		})
	}
}

// TestRunHostWithVMPublish runs the host side end to end: pid-set VMs over
// the workload mix, per-VM rows in every round and a live TCP frame stream a
// guest could dial.
func TestRunHostWithVMPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("quick calibration plus monitoring is too slow for -short")
	}
	args := []string{"-duration", "3s", "-interval", "1s", "-source", "blended",
		"-vms", "vma=1,3;vmb=2", "-vm-publish", "127.0.0.1:0"}
	if err := run(args); err != nil {
		t.Fatalf("daemon run with -vm-publish failed: %v", err)
	}
	// An out-of-range workload index fails after spawn, like -cgroups.
	if err := run([]string{"-duration", "2s", "-interval", "1s", "-vms", "vma=99"}); err == nil {
		t.Fatal("out-of-range workload index should fail")
	}
}

// TestRunGuestWithVMDelegate runs the guest side end to end against a
// synthetic host: the test publishes frames over a real TCP bridge and the
// daemon consumes them as its machine power.
func TestRunGuestWithVMDelegate(t *testing.T) {
	if testing.Short() {
		t.Skip("quick calibration plus monitoring is too slow for -short")
	}
	host, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	// A steady trickle of frames stands in for the host daemon's rounds; the
	// guest's sampling rounds pick up whichever figure is freshest.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				seq++
				_ = host.Send(vmbridge.VMPowerFrame{VM: "host", Seq: seq, Watts: 12.5, Timestamp: time.Duration(seq) * time.Second,
					Rows: []vmbridge.TargetRow{{Key: "vm:vma", Watts: 12.5}}})
			}
		}
	}()
	defer func() { close(stop); <-done }()

	args := []string{"-duration", "3s", "-interval", "1s",
		"-vm-delegate", host.Addr().String(), "-vm-name", "vma", "-vm-stale", "hold"}
	if err := run(args); err != nil {
		t.Fatalf("daemon run with -vm-delegate failed: %v", err)
	}
}
