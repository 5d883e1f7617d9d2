"""Tests for the decision-tree DSL, the bundled models, and the
differential runner."""

from __future__ import annotations

import json
import random

import pytest

from contentoracle import browser_model
from contentoracle.browser_model import (
    Action,
    Disposition,
    RequestContext,
    context_from_obj,
    context_sort_key,
    context_to_obj,
    differential,
    enumerate_grid,
    load_tree,
    run,
)
from contentoracle.errors import MalformedTree
from contentoracle.mime_db import MimeType

PDF = MimeType("application", "pdf")
ZIP = MimeType("application", "zip")
HTML = MimeType("text", "html")
JS = MimeType("text", "javascript")
GIF = MimeType("image", "gif")


@pytest.fixture(scope="module")
def firefox(runtime):
    return load_tree((runtime.models_dir / "firefox-like.tree").read_text(), "firefox-like")


@pytest.fixture(scope="module")
def opera(runtime):
    return load_tree((runtime.models_dir / "opera-like.tree").read_text(), "opera-like")


class TestLoadTree:
    def test_bundled_models_load(self, firefox, opera):
        assert firefox.name == "firefox-like"
        assert opera.name == "opera-like"

    def test_single_leaf_tree(self):
        tree = load_tree("! Download")
        for ctx in (RequestContext(), RequestContext(auto_download=True, content_type=PDF)):
            assert run(tree, ctx) is Action.DOWNLOAD

    def test_missing_no_branch(self):
        source = "? auto_download is true\n  ! Download"
        with pytest.raises(MalformedTree):
            load_tree(source)

    def test_missing_yes_branch(self):
        with pytest.raises(MalformedTree):
            load_tree("? auto_download is true")

    def test_unknown_action(self):
        with pytest.raises(MalformedTree):
            load_tree("! Explode")

    def test_unknown_field(self):
        source = "? user_agent is true\n  ! Download\n  ! Render"
        with pytest.raises(MalformedTree):
            load_tree(source)

    def test_unknown_op(self):
        source = "? content_type resembles application/pdf\n  ! Download\n  ! Render"
        with pytest.raises(MalformedTree):
            load_tree(source)

    def test_extra_node_after_root(self):
        source = "! Download\n! Render"
        with pytest.raises(MalformedTree):
            load_tree(source)

    def test_bad_indent(self):
        source = "? auto_download is true\n ! Download\n ! Render"
        with pytest.raises(MalformedTree):
            load_tree(source)

    def test_empty_source(self):
        with pytest.raises(MalformedTree):
            load_tree("# nothing here\n")

    @pytest.mark.parametrize("source,message", [
        ("? nosniff present", "line 1: 'present' only applies to type fields, not 'nosniff'"),
        ("? content_type present text/html", "line 1: 'present' takes no value"),
        ("? nosniff is yes", "line 1: boolean literal expected, got 'yes'"),
        ("? content_disposition is sideways", "line 1: unknown disposition 'sideways'"),
        ("? content_type agrees nosniff", "line 1: 'agrees' compares two type fields"),
        ("? nosniff in text/html", "line 1: 'in' only applies to type fields, not 'nosniff'"),
        ("? content_type in", "line 1: 'in' needs a non-empty list"),
        ("  ! Download", "line 1: expected depth 0, found 1"),
        ("Download", "line 1: node must start with '?' or '!'"),
        ("? nosniff", "line 1: predicate needs a field and an op"),
        ("? content_type is text/", "line 1: empty token in '' (while parsing 'text/')"),
    ])
    def test_rejection_names_the_fault(self, source, message):
        with pytest.raises(MalformedTree) as excinfo:
            load_tree(source + "\n  ! Download\n  ! Render")
        assert str(excinfo.value) == message


class TestRunFirefoxLike:
    """Each input tuple drives one figure path of the transcription."""

    def test_autodownload_type_agrees_extension(self, firefox):
        ctx = RequestContext(content_type=PDF, extension_mime=PDF, auto_download=True)
        assert run(firefox, ctx) is Action.PROMPT_DOC_TYPE

    def test_autodownload_type_disagrees_extension(self, firefox):
        ctx = RequestContext(content_type=PDF, extension_mime=ZIP, auto_download=True)
        assert run(firefox, ctx) is Action.PROMPT_MIME

    def test_autodownload_sniffed_matches_extension(self, firefox):
        ctx = RequestContext(sniffed_mime=PDF, extension_mime=PDF, auto_download=True)
        assert run(firefox, ctx) is Action.PROMPT_DOC_TYPE

    def test_autodownload_sniffed_mismatches_extension(self, firefox):
        ctx = RequestContext(sniffed_mime=ZIP, extension_mime=PDF, auto_download=True)
        assert run(firefox, ctx) is Action.PROMPT_MIME

    def test_autodownload_unsniffable_auto_open(self, firefox):
        ctx = RequestContext(extension_mime=PDF, auto_download=True, auto_open=True)
        assert run(firefox, ctx) is Action.OPEN_WITH_APP

    def test_autodownload_unsniffable_download(self, firefox):
        # sniffing allowed but the payload matched nothing: the download leaf
        ctx = RequestContext(extension_mime=PDF, auto_download=True,
                             nosniff=False, auto_open=False)
        assert run(firefox, ctx) is Action.DOWNLOAD

    def test_renderable_type_renders(self, firefox):
        ctx = RequestContext(content_type=HTML)
        assert run(firefox, ctx) is Action.RENDER

    def test_nonrenderable_auto_open(self, firefox):
        ctx = RequestContext(content_type=ZIP, auto_open=True)
        assert run(firefox, ctx) is Action.OPEN_WITH_APP

    def test_nonrenderable_known_prompts_doc_type(self, firefox):
        ctx = RequestContext(content_type=ZIP)
        assert run(firefox, ctx) is Action.PROMPT_DOC_TYPE

    def test_nonrenderable_unknown_prompts_mime(self, firefox):
        unknown = MimeType("application", "x-msdownload")
        ctx = RequestContext(content_type=unknown)
        assert run(firefox, ctx) is Action.PROMPT_MIME

    def test_no_type_auto_open(self, firefox):
        ctx = RequestContext(auto_open=True)
        assert run(firefox, ctx) is Action.AUTO_OPEN

    def test_nosniff_suppresses_sniffed_type(self, firefox):
        ctx = RequestContext(sniffed_mime=ZIP, extension_mime=PDF,
                             auto_download=True, nosniff=True)
        # with sniffing suppressed this falls through to the download leaf
        assert run(firefox, ctx) is Action.DOWNLOAD


class TestDifferential:
    def test_self_comparison_is_empty(self, firefox, opera):
        grid = enumerate_grid()
        assert differential(firefox, firefox, grid) == []
        assert differential(opera, opera, grid) == []

    def test_constant_trees_diverge_everywhere(self):
        down = load_tree("! Download", "down")
        render = load_tree("! Render", "render")
        grid = enumerate_grid()
        assert len(differential(down, render, grid)) == len(grid)

    def test_grid_size(self):
        # 6 mimes ^ 3 fields x 3 dispositions x 2^3 booleans
        assert len(enumerate_grid()) == 6 * 6 * 6 * 3 * 2 * 2 * 2

    def test_bundled_models_diverge(self, firefox, opera):
        grid = enumerate_grid()
        points = differential(firefox, opera, grid)
        assert points, "models must diverge somewhere"
        # every reported divergence re-verifies by direct runs
        for ctx, act_a, act_b in points:
            assert run(firefox, ctx) is act_a
            assert run(opera, ctx) is act_b
            assert act_a is not act_b

    def test_reported_plus_agreeing_covers_grid(self, firefox, opera):
        grid = enumerate_grid()
        points = differential(firefox, opera, grid)
        agreeing = sum(1 for ctx in grid if run(firefox, ctx) is run(opera, ctx))
        assert len(points) + agreeing == len(grid)

    def test_output_order_independent_of_enumeration(self, firefox, opera):
        grid = enumerate_grid()
        shuffled = list(grid)
        random.Random(13).shuffle(shuffled)
        assert differential(firefox, opera, grid) == differential(firefox, opera, shuffled)

    def test_output_sorted(self, firefox, opera):
        points = differential(firefox, opera, enumerate_grid())
        keys = [context_sort_key(ctx) for ctx, _, _ in points]
        assert keys == sorted(keys)

    def test_run_parses_no_type(self, firefox, opera, monkeypatch):
        # every literal is parsed by load_tree; walking a tree parses nothing
        grid = enumerate_grid()
        expected = differential(firefox, opera, grid)

        def fail(text):
            raise AssertionError(f"parse_mime_type({text!r}) called at run time")

        monkeypatch.setattr(browser_model, "parse_mime_type", fail)
        assert differential(firefox, opera, grid) == expected


class TestRequestContextCodec:
    def test_every_grid_point_round_trips_through_json(self):
        for ctx in enumerate_grid():
            assert context_from_obj(json.loads(json.dumps(context_to_obj(ctx)))) == ctx

    def test_json_form(self):
        ctx = RequestContext(content_type=PDF, content_disposition=Disposition.INLINE,
                             auto_open=True)
        assert context_to_obj(ctx) == {
            "sniffed_mime": None, "extension_mime": None, "content_type": "application/pdf",
            "content_disposition": "inline",
            "nosniff": False, "auto_download": False, "auto_open": True,
        }

    def test_grid_is_the_panel_product_in_order(self):
        panel, flags = browser_model.DEFAULT_MIME_PANEL, (False, True)
        expected = []
        for sniffed in panel:
            for ext in panel:
                for ct in panel:
                    for disp in Disposition:
                        for nosniff in flags:
                            for auto_dl in flags:
                                for auto_open in flags:
                                    expected.append(RequestContext(
                                        sniffed_mime=sniffed, extension_mime=ext,
                                        content_type=ct, content_disposition=disp,
                                        nosniff=nosniff, auto_download=auto_dl,
                                        auto_open=auto_open,
                                    ))
        assert enumerate_grid() == expected


class TestPredicates:
    def test_agrees_requires_both_present(self):
        tree = load_tree(
            "? content_type agrees extension_mime\n  ! Render\n  ! Download"
        )
        assert run(tree, RequestContext(content_type=PDF)) is Action.DOWNLOAD
        assert run(tree, RequestContext()) is Action.DOWNLOAD
        assert run(tree, RequestContext(content_type=PDF, extension_mime=PDF)) is Action.RENDER

    def test_agreement_ignores_parameters(self):
        tree = load_tree(
            "? content_type agrees extension_mime\n  ! Render\n  ! Download"
        )
        with_params = MimeType("application", "pdf", (("v", "1"),))
        ctx = RequestContext(content_type=with_params, extension_mime=PDF)
        assert run(tree, ctx) is Action.RENDER

    def test_disposition_literal(self):
        tree = load_tree(
            "? content_disposition is attachment\n  ! Download\n  ! Render"
        )
        assert run(tree, RequestContext(
            content_disposition=Disposition.ATTACHMENT)) is Action.DOWNLOAD
        assert run(tree, RequestContext()) is Action.RENDER

    def test_mime_equality_literal(self):
        tree = load_tree("? content_type is application/pdf\n  ! Render\n  ! Download")
        assert run(tree, RequestContext(content_type=PDF)) is Action.RENDER
        assert run(tree, RequestContext(content_type=ZIP)) is Action.DOWNLOAD
        assert run(tree, RequestContext()) is Action.DOWNLOAD

    def test_run_total_over_grid(self, firefox, opera):
        for tree in (firefox, opera):
            for ctx in enumerate_grid():
                assert run(tree, ctx) in Action
