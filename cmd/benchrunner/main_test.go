package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list = %d", code)
	}
	if !strings.Contains(stdout.String(), "E5") {
		t.Fatalf("-list output does not mention E5: %q", stdout.String())
	}
}
