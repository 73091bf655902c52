package aecodes_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"aecodes"
)

// TestArchiveContextFirstRoundTrip pins the ctx-first constructors'
// round trip.
func TestArchiveContextFirstRoundTrip(t *testing.T) {
	code, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(archiveParamsBlock)
	payload := bytes.Repeat([]byte("ctx-first "), 40)

	w, err := aecodes.NewArchiveWriterContext(context.Background(), code, store, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := aecodes.OpenArchiveContext(context.Background(), code, store, aecodes.ArchiveOptions{})
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("ctx-first round trip corrupted the payload")
	}
}

func TestArchiveWriterContextCancellation(t *testing.T) {
	code, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(archiveParamsBlock)
	ctx, cancel := context.WithCancel(context.Background())
	w, err := aecodes.NewArchiveWriterContext(ctx, code, store, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The cancellation must surface through the writer — on Write or at
	// the latest on Close — instead of hanging the pipeline.
	_, werr := w.Write(bytes.Repeat([]byte{0xAB}, 4096))
	cerr := w.Close()
	if !errors.Is(werr, context.Canceled) && !errors.Is(cerr, context.Canceled) {
		t.Fatalf("cancelled writer: Write err %v, Close err %v, want context.Canceled", werr, cerr)
	}
}

func TestOpenArchiveContextCancellation(t *testing.T) {
	code, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(archiveParamsBlock)
	payload := bytes.Repeat([]byte{0xCD}, 2048)
	w, err := aecodes.NewArchiveWriterContext(context.Background(), code, store, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reader, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(aecodes.OpenArchiveContext(ctx, reader, store, aecodes.ArchiveOptions{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reader error = %v, want context.Canceled", err)
	}
}
