"""Static SVG/HTML rendering of dashboards, the index page, and the map."""

from .choropleth import ChoroplethModel, build_choropleth, render_choropleth
from .dashboard import DashboardBlock, build_dashboard, render_dashboard
from .index_page import render_index
from .svg import CLASS_COLORS, GROUP_COLORS, pie_angles

__all__ = [
    "ChoroplethModel",
    "DashboardBlock",
    "build_choropleth",
    "build_dashboard",
    "render_choropleth",
    "render_dashboard",
    "render_index",
    "pie_angles",
    "CLASS_COLORS",
    "GROUP_COLORS",
]
